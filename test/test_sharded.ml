(* Sharded batched construction: for every strategy the merged edge
   set must equal the per-root sequential reference exactly, for every
   domain count and root order; every batched tree must equal its
   per-root build pair for pair; and the results must satisfy the
   constructions' remote-spanner guarantees. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph_of_seed ~max_n seed =
  let rand = Rand.create seed in
  let n = 2 + Rand.int rand (max_n - 1) in
  match Rand.int rand 4 with
  | 0 -> Gen.erdos_renyi rand n (0.05 +. Rand.float rand 0.3)
  | 1 -> Gen.random_connected rand n 0.1
  | 2 ->
      let side = sqrt (float_of_int n /. 3.0) in
      let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
      Rs_geometry.Unit_ball.udg pts
  | _ -> Gen.random_tree rand n

let arb_graph ~max_n =
  QCheck2.Gen.map (graph_of_seed ~max_n) QCheck2.Gen.(int_range 0 1_000_000)

let make_test ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* the per-root entry point of each strategy *)
let per_root ~scratch g = function
  | Sharded.Gdy { r; beta } -> fun u -> Dom_tree.gdy ~scratch g ~r ~beta u
  | Sharded.Mis { r } -> fun u -> Dom_tree.mis ~scratch g ~r u
  | Sharded.Gdy_k { k } -> fun u -> Dom_tree_k.gdy_k ~scratch g ~k u
  | Sharded.Mis_k { k } -> fun u -> Dom_tree_k.mis_k ~scratch g ~k u

let add_pairs h pairs len =
  for i = 0 to len - 1 do
    Edge_set.add h pairs.(2 * i) pairs.((2 * i) + 1)
  done

(* the per-root sequential reference: one tree per root, unioned root
   by root *)
let reference g strat =
  let tree_of = per_root ~scratch:(Bfs.Scratch.create ()) g strat in
  let h = Edge_set.create g in
  for u = 0 to Graph.n g - 1 do
    let pairs = tree_of u in
    add_pairs h pairs (Array.length pairs / 2)
  done;
  h

let strategies =
  [
    ("gdy r3 b1", Sharded.Gdy { r = 3; beta = 1 });
    ("gdy r2 b0", Sharded.Gdy { r = 2; beta = 0 });
    ("mis r3", Sharded.Mis { r = 3 });
    ("gdy_k k1", Sharded.Gdy_k { k = 1 });
    ("gdy_k k2", Sharded.Gdy_k { k = 2 });
    ("mis_k k2", Sharded.Mis_k { k = 2 });
    ("mis_k k3", Sharded.Mis_k { k = 3 });
  ]

let prop_matches_reference g =
  List.for_all
    (fun (_, strat) ->
      Edge_set.equal (reference g strat) (Sharded.build ~domains:1 g strat))
    strategies

(* shard-merge determinism: same edge set for every domain count, and
   for the batched trees of the roots in reversed order (so every
   batch holds other roots) *)
let prop_deterministic g =
  let n = Graph.n g in
  let reversed strat =
    let h = Edge_set.create g in
    Sharded.iter_trees g strat (Array.init n (fun i -> n - 1 - i)) (fun _ -> add_pairs h);
    h
  in
  List.for_all
    (fun strat ->
      let expect = reference g strat in
      List.for_all
        (fun build -> Edge_set.equal expect (build ()))
        [
          (fun () -> Sharded.build ~domains:1 g strat);
          (fun () -> Sharded.build ~domains:2 g strat);
          (fun () -> Sharded.build ~domains:3 g strat);
          (fun () -> Sharded.build ~domains:5 g strat);
          (fun () -> reversed strat);
        ])
    [ Sharded.Gdy_k { k = 1 }; Sharded.Mis_k { k = 2 }; Sharded.Mis_k { k = 3 } ]

(* Tree by tree, not just the union (where differences between roots
   could cancel out): for every strategy and root, the per-root entry
   point returns exactly the pairs [iter_trees] hands over, in the
   same emission order, and the local certificate accepts them. *)
let prop_per_root_equals_batched g =
  let scratch = Bfs.Scratch.create () and cert = Certificate.create () in
  List.for_all
    (fun (_, strat) ->
      let tree_of = per_root ~scratch g strat in
      let ok = ref true in
      Sharded.iter_trees g strat (Array.init (Graph.n g) Fun.id) (fun root pairs len ->
          let batched = Array.sub pairs 0 (2 * len) in
          ok :=
            !ok && tree_of root = batched && Certificate.check cert g strat ~root batched);
      !ok)
    strategies

let prop_is_remote_spanner g =
  let h_exact = Sharded.build ~domains:2 g (Sharded.Gdy_k { k = 1 }) in
  let h_mis = Sharded.build ~domains:2 g (Sharded.Mis { r = 3 }) in
  Verify.is_remote_spanner g h_exact ~alpha:1.0 ~beta:0.0
  && Verify.is_remote_spanner g h_mis ~alpha:1.5 ~beta:0.0

let test_strategies_on_fixed_graphs () =
  let rand = Rand.create 77 in
  let side = sqrt (300.0 /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n:300 ~dim:2 ~side in
  let gs =
    [ ("udg300", Rs_geometry.Unit_ball.udg pts);
      ("petersen", Gen.petersen ());
      ("gnp", Gen.erdos_renyi (Rand.create 3) 120 0.06) ]
  in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (sname, strat) ->
          check
            (gname ^ " " ^ sname)
            true
            (Edge_set.equal (reference g strat) (Sharded.build g strat)))
        strategies)
    gs

let test_empty_and_tiny () =
  let g0 = Gen.empty 0 in
  check_int "empty" 0
    (Edge_set.cardinal (Sharded.build g0 (Sharded.Gdy_k { k = 1 })));
  let g1 = Gen.path_graph 3 in
  check "tiny" true
    (Edge_set.equal
       (reference g1 (Sharded.Gdy_k { k = 1 }))
       (Sharded.build ~domains:4 g1 (Sharded.Gdy_k { k = 1 })))

let test_bad_arguments () =
  let g = Gen.cycle 8 in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "bad r" true (raises (fun () -> Sharded.build g (Sharded.Gdy { r = 0; beta = 1 })));
  check "bad k" true (raises (fun () -> Sharded.build g (Sharded.Gdy_k { k = 0 })));
  check "bad mis_k k" true (raises (fun () -> Sharded.build g (Sharded.Mis_k { k = 0 })))

let () =
  Alcotest.run "sharded"
    [
      ( "equivalence",
        [
          make_test "every strategy matches per-root reference"
            (arb_graph ~max_n:50) prop_matches_reference;
          make_test ~count:25 "deterministic across domains/order/chunking"
            (arb_graph ~max_n:60) prop_deterministic;
          make_test ~count:25 "per-root trees = batched trees, pair for pair"
            (arb_graph ~max_n:60) prop_per_root_equals_batched;
          make_test ~count:20 "verified remote-spanner guarantees"
            (arb_graph ~max_n:40) prop_is_remote_spanner;
        ] );
      ( "unit",
        [
          Alcotest.test_case "fixed graphs, all strategies" `Quick
            test_strategies_on_fixed_graphs;
          Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
          Alcotest.test_case "invalid arguments" `Quick test_bad_arguments;
        ] );
    ]
