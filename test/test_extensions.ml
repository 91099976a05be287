(* Tests for the edge-connectivity extension (Edge_disjoint,
   Verify.is_edge_k_connecting, Extensions) and the hybrid
   construction for the paper's open problem. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

(* ---------------------------------------------------------------- *)
(* Edge_disjoint *)

let test_edge_dk_cycle () =
  let c = Gen.cycle 7 in
  (* same as the vertex case on a cycle: 3 + 4 *)
  Alcotest.(check (array int)) "profile" [| 3; 7 |] (Edge_disjoint.dk_profile c ~kmax:3 0 3)

let test_edge_dk_bowtie_beats_vertex () =
  let g = Extensions.bowtie () in
  check_int "vertex menger" 1 (Disjoint_paths.max_disjoint g 0 4);
  check_int "edge menger" 2 (Edge_disjoint.max_disjoint g 0 4);
  Alcotest.(check (option int)) "edge d2 via shared vertex" (Some 6)
    (Edge_disjoint.dk g ~k:2 0 4);
  Alcotest.(check (option int)) "vertex d2 absent" None (Disjoint_paths.dk g ~k:2 0 4)

let test_edge_dk_dominated_by_vertex () =
  (* d^k_edge <= d^k_vertex wherever both exist *)
  List.iter
    (fun g ->
      let n = Graph.n g in
      for s = 0 to n - 1 do
        for t = s + 1 to n - 1 do
          let pv = Disjoint_paths.dk_profile g ~kmax:3 s t in
          let pe = Edge_disjoint.dk_profile g ~kmax:3 s t in
          check "at least as many paths" true (Array.length pe >= Array.length pv);
          Array.iteri (fun i dv -> check "edge <= vertex" true (pe.(i) <= dv)) pv
        done
      done)
    [ Gen.petersen (); Gen.grid 3 4; Extensions.bowtie (); Gen.barbell 3 ]

let test_edge_min_sum_paths_valid () =
  let g = Extensions.bowtie () in
  match Edge_disjoint.min_sum_paths g ~k:2 0 4 with
  | None -> Alcotest.fail "two edge-disjoint paths exist"
  | Some paths ->
      check_int "two paths" 2 (List.length paths);
      List.iter
        (fun p ->
          check "valid path" true (Path.is_valid g p);
          check_int "from 0" 0 (Path.source p);
          check_int "to 4" 4 (Path.target p))
        paths;
      check "edge disjoint" true (Edge_disjoint.edges_pairwise_disjoint paths);
      check_int "total = d2" 6 (List.fold_left (fun a p -> a + Path.length p) 0 paths)

let test_edge_min_sum_paths_theta () =
  let g = Gen.theta 3 4 in
  match Edge_disjoint.min_sum_paths g ~k:3 0 1 with
  | None -> Alcotest.fail "three paths"
  | Some paths ->
      check "disjoint" true (Edge_disjoint.edges_pairwise_disjoint paths);
      check_int "total" 15 (List.fold_left (fun a p -> a + Path.length p) 0 paths)

let test_edges_pairwise_disjoint_negative () =
  check "reused edge" false
    (Edge_disjoint.edges_pairwise_disjoint [ [ 0; 1; 2 ]; [ 3; 1; 0 ] ]);
  check "shared vertex ok" true
    (Edge_disjoint.edges_pairwise_disjoint [ [ 0; 1; 2 ]; [ 3; 1; 4 ] ])

let test_edge_dk_k1_is_bfs () =
  let g = Gen.grid 4 4 in
  for s = 0 to 15 do
    for t = 0 to 15 do
      if s <> t then
        Alcotest.(check (option int))
          "d1 edge = bfs"
          (let d = Bfs.dist_pair g s t in
           if d < 0 then None else Some d)
          (Edge_disjoint.dk g ~k:1 s t)
    done
  done

(* ---------------------------------------------------------------- *)
(* Edge-k-connecting verification *)

let test_vertex_constructions_fail_edge_on_bowtie () =
  (* the counterexample driving the extension *)
  let g = Extensions.bowtie () in
  let h = Remote_spanner.two_connecting g in
  check "vertex 2-connecting holds" true
    (Verify.is_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:2);
  check "edge 2-connecting fails" false
    (Verify.is_edge_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:2)

let test_full_graph_is_edge_k_connecting () =
  List.iter
    (fun g ->
      check "full" true
        (Verify.is_edge_k_connecting g (Baseline.full g) ~alpha:1.0 ~beta:0.0 ~k:3))
    [ Gen.petersen (); Extensions.bowtie (); Gen.grid 3 4 ]

(* ---------------------------------------------------------------- *)
(* Extensions.edge_repair *)

let repair_cases =
  [ ("bowtie", Extensions.bowtie ());
    ("barbell4", Gen.barbell 4);
    ("er18", Gen.erdos_renyi (Rand.create 5) 18 0.35);
    ("udg25", udg 9 25);
    ("grid34", Gen.grid 3 4);
    ("theta35", Gen.theta 3 5);
    (* two repairs here, the second shorter once the first is in H *)
    ( "er13",
      let rand = Rand.create 9 in
      let n = 6 + Rand.int rand 10 in
      Gen.erdos_renyi rand n (0.2 +. Rand.float rand 0.3) ) ]

(* Sound, and edge for edge what checking every pair against a freshly
   built H_s (test/reference.ml) repairs, from the spanner and from
   nothing. *)
let test_edge_repair_sound () =
  List.iter
    (fun (name, g) ->
      let h, _ = Extensions.edge_repair g ~k:2 ~base:(Remote_spanner.two_connecting g) in
      check (name ^ " (1,0) edge-2-connecting") true
        (Verify.is_edge_k_connecting g h ~alpha:1.0 ~beta:0.0 ~k:2);
      List.iter
        (fun base ->
          let h, added = Extensions.edge_repair g ~k:2 ~base in
          let h_ref, added_ref = Reference.edge_repair g ~k:2 ~base in
          check_int (name ^ " added = reference") added_ref added;
          check (name ^ " repaired H = reference") true (Edge_set.equal h_ref h))
        [ Remote_spanner.two_connecting g; Edge_set.create g ])
    repair_cases

let test_edge_repair_bowtie_adds_two () =
  let g = Extensions.bowtie () in
  let base = Remote_spanner.two_connecting g in
  let h, added = Extensions.edge_repair g ~k:2 ~base in
  check_int "adds the two dropped edges" 2 added;
  check "contains 0-1" true (Edge_set.mem h 0 1);
  check "contains 3-4" true (Edge_set.mem h 3 4)

let test_edge_repair_idempotent () =
  let g = Extensions.bowtie () in
  let h1, _ = Extensions.edge_repair g ~k:2 ~base:(Remote_spanner.two_connecting g) in
  let h2, added = Extensions.edge_repair g ~k:2 ~base:h1 in
  check_int "nothing more to add" 0 added;
  check "unchanged" true (Edge_set.equal h1 h2)

let test_edge_repair_noop_on_full () =
  let g = Gen.petersen () in
  let _, added = Extensions.edge_repair g ~k:3 ~base:(Baseline.full g) in
  check_int "full needs nothing" 0 added

let test_edge_two_connecting_wrapper () =
  let g = Extensions.bowtie () in
  let h = Extensions.edge_two_connecting g in
  check "sound" true (Verify.is_edge_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:2);
  check "base included" true
    (Edge_set.subset (Remote_spanner.two_connecting g) h)

(* ---------------------------------------------------------------- *)
(* Extensions.hybrid (open problem, empirical) *)

let test_hybrid_contains_both_parts () =
  let g = udg 11 40 in
  let h = Extensions.hybrid g ~eps:0.5 ~k:2 in
  check "low-stretch part" true (Edge_set.subset (Remote_spanner.low_stretch g ~eps:0.5) h);
  check "k-connecting part" true (Edge_set.subset (Remote_spanner.k_connecting_mis g ~k:2) h)

let test_hybrid_is_low_stretch_rs () =
  (* the k'=1 guarantee is inherited from the low-stretch part *)
  List.iter
    (fun (name, g) ->
      let h = Extensions.hybrid g ~eps:0.5 ~k:2 in
      check (name ^ " (1.5,0)-RS") true (Verify.is_remote_spanner g h ~alpha:1.5 ~beta:0.0))
    repair_cases

let test_hybrid_empirical_k_stretch () =
  (* measured, not proved: on these instances the hybrid achieves
     (1.5, 1)-2-connecting stretch (and usually (1.5, 0)) *)
  List.iter
    (fun (name, g) ->
      let h = Extensions.hybrid g ~eps:0.5 ~k:2 in
      check (name ^ " empirical (1.5,1) k=2") true
        (Verify.is_k_connecting g h ~alpha:1.5 ~beta:1.0 ~k:2))
    repair_cases

let () =
  Alcotest.run "extensions"
    [
      ( "edge_disjoint",
        [
          Alcotest.test_case "cycle profile" `Quick test_edge_dk_cycle;
          Alcotest.test_case "bowtie beats vertex" `Quick test_edge_dk_bowtie_beats_vertex;
          Alcotest.test_case "edge <= vertex" `Quick test_edge_dk_dominated_by_vertex;
          Alcotest.test_case "paths valid (bowtie)" `Quick test_edge_min_sum_paths_valid;
          Alcotest.test_case "paths valid (theta)" `Quick test_edge_min_sum_paths_theta;
          Alcotest.test_case "disjointness predicate" `Quick test_edges_pairwise_disjoint_negative;
          Alcotest.test_case "k=1 is bfs" `Quick test_edge_dk_k1_is_bfs;
        ] );
      ( "edge_verify",
        [
          Alcotest.test_case "bowtie counterexample" `Quick test_vertex_constructions_fail_edge_on_bowtie;
          Alcotest.test_case "full graph passes" `Quick test_full_graph_is_edge_k_connecting;
        ] );
      ( "edge_repair",
        [
          Alcotest.test_case "sound everywhere" `Slow test_edge_repair_sound;
          Alcotest.test_case "bowtie adds exactly 2" `Quick test_edge_repair_bowtie_adds_two;
          Alcotest.test_case "idempotent" `Quick test_edge_repair_idempotent;
          Alcotest.test_case "noop on full" `Quick test_edge_repair_noop_on_full;
          Alcotest.test_case "wrapper" `Quick test_edge_two_connecting_wrapper;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "contains both parts" `Quick test_hybrid_contains_both_parts;
          Alcotest.test_case "(1.5,0)-RS" `Quick test_hybrid_is_low_stretch_rs;
          Alcotest.test_case "empirical k-stretch" `Slow test_hybrid_empirical_k_stretch;
        ] );
    ]
