(* Sharded batched construction: for every strategy the merged edge
   set must equal the per-root sequential reference exactly, for every
   domain count, batch width, root order and shard mode — and the
   results must satisfy the constructions' remote-spanner
   guarantees. *)
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

(* the per-root sequential reference for each strategy: one Tree.t per
   root, unioned root by root *)
let reference g strat =
  let scratch = Bfs.Scratch.create () in
  let tree_of =
    match strat with
    | Sharded.Gdy { r; beta } -> fun u -> Dom_tree.gdy ~scratch g ~r ~beta u
    | Sharded.Mis { r } -> fun u -> Dom_tree.mis ~scratch g ~r u
    | Sharded.Gdy_k { k } -> fun u -> Dom_tree_k.gdy_k ~scratch g ~k u
    | Sharded.Mis_k { k } -> fun u -> Dom_tree_k.mis_k ~scratch g ~k u
  in
  let h = Edge_set.create g in
  for u = 0 to Graph.n g - 1 do
    Tree.add_to h (tree_of u)
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

(* shard-merge determinism: same edge set for every domain count,
   batch width, root order and the local (halo sub-graph) mode *)
let prop_deterministic g =
  let n = Graph.n g in
  let reversed = Array.init n (fun i -> n - 1 - i) in
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
          (fun () -> Sharded.build ~domains:2 ~chunk:1 g strat);
          (fun () -> Sharded.build ~domains:2 ~chunk:7 g strat);
          (fun () -> Sharded.build ~domains:2 ~order:reversed g strat);
          (fun () -> Sharded.build ~domains:2 ~local:true g strat);
          (fun () -> Sharded.build ~domains:1 ~local:true ~chunk:5 g strat);
        ])
    [ Sharded.Gdy_k { k = 1 }; Sharded.Mis_k { k = 2 }; Sharded.Mis_k { k = 3 } ]

let prop_local_mode_all_strategies g =
  List.for_all
    (fun (_, strat) ->
      Edge_set.equal (reference g strat)
        (Sharded.build ~domains:2 ~local:true g strat))
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

let test_grid_order_is_permutation () =
  let rand = Rand.create 5 in
  let pts = Rs_geometry.Sampler.uniform rand ~n:200 ~dim:2 ~side:7.0 in
  let order = Rs_geometry.Proximity.grid_order pts in
  check_int "length" 200 (Array.length order);
  let seen = Array.make 200 false in
  Array.iter
    (fun v ->
      check "in range" true (v >= 0 && v < 200);
      check "no dup" false seen.(v);
      seen.(v) <- true)
    order;
  (* and it is a valid Sharded order producing the reference set *)
  let g = Rs_geometry.Unit_ball.udg pts in
  let strat = Sharded.Gdy_k { k = 1 } in
  check "grid order same result" true
    (Edge_set.equal (reference g strat)
       (Sharded.build ~domains:2 ~order g strat))

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
  check "bad order length" true
    (raises (fun () -> Sharded.build ~order:[| 0; 1 |] g (Sharded.Gdy_k { k = 1 })));
  check "duplicate in order" true
    (raises (fun () ->
         Sharded.build ~order:[| 0; 1; 2; 3; 4; 5; 6; 6 |] g (Sharded.Gdy_k { k = 1 })));
  check "out-of-range in order" true
    (raises (fun () ->
         Sharded.build ~order:[| 0; 1; 2; 3; 4; 5; 6; 8 |] g (Sharded.Gdy_k { k = 1 })));
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
          make_test ~count:25 "deterministic across domains/order/chunk/local"
            (arb_graph ~max_n:60) prop_deterministic;
          make_test ~count:20 "local mode matches for every strategy"
            (arb_graph ~max_n:40) prop_local_mode_all_strategies;
          make_test ~count:20 "verified remote-spanner guarantees"
            (arb_graph ~max_n:40) prop_is_remote_spanner;
        ] );
      ( "unit",
        [
          Alcotest.test_case "fixed graphs, all strategies" `Quick
            test_strategies_on_fixed_graphs;
          Alcotest.test_case "geometry grid order" `Quick
            test_grid_order_is_permutation;
          Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
          Alcotest.test_case "invalid arguments" `Quick test_bad_arguments;
        ] );
    ]
