(* Flow-verified tests for k-connecting remote-spanners:
   Theorem 2 (k-connecting (1,0)), Theorem 3 / Proposition 4
   (2-connecting (2,-1)), Proposition 5 (characterization). *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

(* small graphs: the checker runs O(n^2) max-flow computations *)
let small_graphs =
  [
    ("petersen", Gen.petersen ());
    ("k33", Gen.complete_bipartite 3 3);
    ("theta35", Gen.theta 3 5);
    ("hypercube3", Gen.hypercube 3);
    ("grid34", Gen.grid 3 4);
    ("cycle8", Gen.cycle 8);
    ("udg", udg 81 25);
    ("er_dense", Gen.erdos_renyi (Rand.create 83) 18 0.35);
    ("barbell4", Gen.barbell 4);
  ]

let test_k_connecting_stretch () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let h = Remote_spanner.k_connecting g ~k in
          check
            (Printf.sprintf "%s k=%d" name k)
            true
            (Verify.is_k_connecting g h ~alpha:1.0 ~beta:0.0 ~k))
        [ 1; 2; 3 ])
    small_graphs

let test_k_connecting_preserves_menger () =
  List.iter
    (fun (name, g) ->
      let k = 2 in
      let h = Remote_spanner.k_connecting g ~k in
      Graph.iter_vertices
        (fun s ->
          Graph.iter_vertices
            (fun t ->
              if s < t && not (Graph.mem_edge g s t) then begin
                let in_g = min k (Disjoint_paths.max_disjoint g s t) in
                let in_h =
                  Array.length
                    (Disjoint_paths.augmented_profile Vertex g (Edge_set.to_graph h) ~kmax:max_int s t)
                in
                check (Printf.sprintf "%s menger %d-%d" name s t) true (in_h >= in_g)
              end)
            g)
        g)
    [ ("petersen", Gen.petersen ()); ("theta35", Gen.theta 3 5); ("grid34", Gen.grid 3 4) ]

let test_k_connecting_induces_k20 () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let h = Remote_spanner.k_connecting g ~k in
          check
            (Printf.sprintf "%s k=%d induces" name k)
            true
            (Verify.induces_k20_trees g h ~k))
        [ 1; 2; 3 ])
    small_graphs

(* Proposition 5 is an iff: check both directions on random subgraphs. *)
let test_prop5_equivalence () =
  let rand = Rand.create 85 in
  List.iter
    (fun (name, g) ->
      for trial = 1 to 10 do
        let h = Edge_set.create g in
        Graph.iter_edges (fun u v -> if Rand.int rand 100 < 75 then Edge_set.add h u v) g;
        List.iter
          (fun k ->
            let induces = Verify.induces_k20_trees g h ~k in
            let kconn = Verify.is_k_connecting g h ~alpha:1.0 ~beta:0.0 ~k in
            check (Printf.sprintf "%s trial=%d k=%d iff" name trial k) true (induces = kconn))
          [ 1; 2 ]
      done)
    [
      ("petersen", Gen.petersen ());
      ("k33", Gen.complete_bipartite 3 3);
      ("cycle7", Gen.cycle 7);
      ("er", Gen.erdos_renyi (Rand.create 87) 14 0.4);
    ]

let test_two_connecting_stretch () =
  List.iter
    (fun (name, g) ->
      let h = Remote_spanner.two_connecting g in
      check (name ^ " (2,-1) 2-connecting") true
        (Verify.is_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:2))
    small_graphs

let test_two_connecting_is_21_remote_spanner () =
  (* Proposition 4 via Proposition 1 with eps = 1: the k' = 1 case *)
  List.iter
    (fun (name, g) ->
      let h = Remote_spanner.two_connecting g in
      check (name ^ " (2,-1)-RS") true
        (Verify.is_remote_spanner g h ~alpha:2.0 ~beta:(-1.0)))
    small_graphs

let test_k_connecting_mis_trees_valid () =
  (* union of Algorithm-5 trees for k=3 still k-connects (extension
     beyond the paper's k=2 proof; verified empirically by flow) *)
  List.iter
    (fun (name, g) ->
      let h = Remote_spanner.k_connecting_mis g ~k:3 in
      (* at stretch (2,-1): d^k'_Hs <= 2 d^k' - k' *)
      check (name ^ " k=3 mis") true
        (Verify.is_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:3))
    [ ("k44", Gen.complete_bipartite 4 4); ("theta45", Gen.theta 4 5); ("er", Gen.erdos_renyi (Rand.create 89) 16 0.5) ]

let test_violation_reporting () =
  (* an empty H on a cycle has violations and they are well-formed *)
  let g = Gen.cycle 8 in
  let h = Edge_set.create g in
  let vs = Verify.remote_spanner_violations g h ~alpha:1.0 ~beta:0.0 ~max_violations:5 in
  check "has violations" true (List.length vs = 5);
  List.iter
    (fun v ->
      check "src/dst nonadjacent" true (not (Graph.mem_edge g v.Verify.src v.Verify.dst));
      check "dg >= 2" true (v.Verify.d_g >= 2))
    vs

let test_kconn_violation_on_broken_spanner () =
  (* theta(2,3): removing one middle edge from H breaks 2-connection *)
  let g = Gen.theta 2 3 in
  let h = Edge_set.full g in
  Edge_set.remove h 2 3;
  let vs = Verify.k_connecting_violations g h ~alpha:1.0 ~beta:0.0 ~k:2 ~max_violations:50 in
  check "violations found" true (vs <> []);
  (* both kinds of failure occur: finite detours (k'=1 stretch blown)
     and infinite ones (the second disjoint path is gone entirely) *)
  List.iter (fun v -> check "worse than G" true (v.Verify.d_h > v.Verify.d_g)) vs;
  check "some infinite" true (List.exists (fun v -> v.Verify.d_h = max_int) vs);
  check "some finite" true (List.exists (fun v -> v.Verify.d_h < max_int) vs)

let test_sampled_pairs_subset () =
  let g = Gen.grid 3 4 in
  let h = Remote_spanner.k_connecting g ~k:2 in
  check "sampled ok" true
    (Verify.is_k_connecting ~pairs:[ (0, 11); (11, 0); (3, 8) ] g h ~alpha:1.0 ~beta:0.0 ~k:2)

let () =
  Alcotest.run "kconnect"
    [
      ( "theorem2",
        [
          Alcotest.test_case "k-connecting stretch" `Slow test_k_connecting_stretch;
          Alcotest.test_case "menger preserved" `Slow test_k_connecting_preserves_menger;
          Alcotest.test_case "induces k-(2,0) trees" `Quick test_k_connecting_induces_k20;
          Alcotest.test_case "Prop 5 equivalence" `Slow test_prop5_equivalence;
        ] );
      ( "theorem3",
        [
          Alcotest.test_case "2-connecting (2,-1)" `Slow test_two_connecting_stretch;
          Alcotest.test_case "(2,-1)-remote-spanner" `Quick test_two_connecting_is_21_remote_spanner;
          Alcotest.test_case "k=3 MIS extension" `Slow test_k_connecting_mis_trees_valid;
        ] );
      ( "violations",
        [
          Alcotest.test_case "reporting" `Quick test_violation_reporting;
          Alcotest.test_case "broken spanner detected" `Quick test_kconn_violation_on_broken_spanner;
          Alcotest.test_case "sampled pairs" `Quick test_sampled_pairs_subset;
        ] );
    ]
