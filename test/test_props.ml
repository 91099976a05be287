(* Property-based tests (qcheck): theorem-level invariants on random
   inputs, registered as alcotest cases. *)
open Rs_graph
open Rs_core

(* ---------------------------------------------------------------- *)
(* Generators *)

let graph_of_seed ~max_n seed =
  let rand = Rand.create seed in
  let n = 2 + Rand.int rand (max_n - 1) in
  match Rand.int rand 4 with
  | 0 -> Gen.erdos_renyi rand n (0.1 +. Rand.float rand 0.4)
  | 1 -> Gen.random_connected rand n 0.1
  | 2 ->
      let side = sqrt (float_of_int n /. 3.0) in
      let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
      Rs_geometry.Unit_ball.udg pts
  | _ -> Gen.random_tree rand n

let arb_graph ~max_n =
  QCheck2.Gen.map (graph_of_seed ~max_n) QCheck2.Gen.(int_range 0 1_000_000)

let make_test ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ---------------------------------------------------------------- *)
(* Properties *)

let prop_exact_distance_rs g =
  Verify.is_remote_spanner g (Remote_spanner.exact_distance g) ~alpha:1.0 ~beta:0.0

let prop_low_stretch_rs g =
  let eps = 0.5 in
  Verify.is_remote_spanner g (Remote_spanner.low_stretch g ~eps) ~alpha:1.5 ~beta:0.0

let prop_rem_span_eps1 g =
  Verify.is_remote_spanner g (Remote_spanner.rem_span g ~r:2 ~beta:1) ~alpha:2.0 ~beta:(-1.0)

let prop_gdy_trees_dominate g =
  Graph.fold_vertices
    (fun acc u ->
      acc && Reference.is_dominating g ~r:3 ~beta:0 ~root:u (Dom_tree.gdy g ~r:3 ~beta:0 u))
    true g

let prop_mis_trees_dominate g =
  Graph.fold_vertices
    (fun acc u -> acc && Reference.is_dominating g ~r:3 ~beta:1 ~root:u (Dom_tree.mis g ~r:3 u))
    true g

let prop_gdy_k_trees g =
  Graph.fold_vertices
    (fun acc u ->
      acc && Reference.is_k_dominating g ~k:2 ~beta:0 ~root:u (Dom_tree_k.gdy_k g ~k:2 u))
    true g

let prop_mis_k_trees g =
  Graph.fold_vertices
    (fun acc u ->
      acc && Reference.is_k_dominating g ~k:2 ~beta:1 ~root:u (Dom_tree_k.mis_k g ~k:2 u))
    true g

let prop_two_connecting g =
  Verify.is_k_connecting g (Remote_spanner.two_connecting g) ~alpha:2.0 ~beta:(-1.0) ~k:2

let prop_k_connecting g =
  Verify.is_k_connecting g (Remote_spanner.k_connecting g ~k:2) ~alpha:1.0 ~beta:0.0 ~k:2

let prop_dk_profile_increasing g =
  let n = Graph.n g in
  let rand = Rand.create (Graph.m g) in
  let ok = ref true in
  for _ = 1 to 10 do
    let s = Rand.int rand n and t = Rand.int rand n in
    if s <> t then begin
      let p = Disjoint_paths.dk_profile g ~kmax:3 s t in
      for i = 1 to Array.length p - 1 do
        (* each extra path adds at least one edge *)
        if p.(i) <= p.(i - 1) then ok := false
      done
    end
  done;
  !ok

let prop_min_sum_paths_consistent g =
  let n = Graph.n g in
  let rand = Rand.create (Graph.n g + 7) in
  let ok = ref true in
  for _ = 1 to 6 do
    let s = Rand.int rand n and t = Rand.int rand n in
    if s <> t then
      match Disjoint_paths.min_sum_paths g ~k:2 s t with
      | None -> ()
      | Some paths ->
          let total = List.fold_left (fun acc p -> acc + Path.length p) 0 paths in
          let dk = Disjoint_paths.dk g ~k:2 s t in
          if dk <> Some total then ok := false;
          if not (Path.pairwise_disjoint paths) then ok := false;
          List.iter (fun p -> if not (Path.is_valid g p) then ok := false) paths
  done;
  !ok

let prop_mpr_floods g =
  if Graph.n g = 0 then true
  else begin
    let relays u = Mpr.select g u in
    let src = 0 in
    let d = Bfs.dist g src in
    let res = Mpr.flood g ~relays ~src in
    let ok = ref true in
    Graph.iter_vertices (fun v -> if (d.(v) >= 0) <> res.Mpr.reached.(v) then ok := false) g;
    !ok
  end

let prop_greedy_spanner_stretch g =
  Baseline.is_spanner g (Baseline.greedy_spanner g ~k:2) ~alpha:3.0 ~beta:0.0

let prop_baswana_sen_stretch g =
  let h = Baseline.baswana_sen (Rand.create (Graph.n g)) g ~k:2 in
  Baseline.is_spanner g h ~alpha:3.0 ~beta:0.0

let prop_additive2_stretch g =
  Baseline.is_spanner g (Baseline.additive2 g) ~alpha:1.0 ~beta:2.0

let prop_routing_delivers_with_exact_spanner g =
  let h = Remote_spanner.exact_distance g in
  let ls = Rs_routing.Link_state.make g h in
  let report = Rs_routing.Link_state.measure_stretch ls in
  report.Rs_routing.Link_state.delivered = report.Rs_routing.Link_state.pairs
  && report.Rs_routing.Link_state.worst_add = 0

let prop_distributed_matches_centralized g =
  let report = Remote_spanner.Distributed.rem_span g ~r:2 ~beta:1 in
  Edge_set.equal report.Remote_spanner.Distributed.spanner
    (Remote_spanner.rem_span g ~r:2 ~beta:1)

let prop_surgery_matches_theorem2 g =
  let h = Remote_spanner.k_connecting g ~k:2 in
  let rand = Rand.create (Graph.n g + 3) in
  let ok = ref true in
  for _ = 1 to 6 do
    let s = Rand.int rand (Graph.n g) and t = Rand.int rand (Graph.n g) in
    if s <> t && (not (Graph.mem_edge g s t)) && Disjoint_paths.max_disjoint g s t > 0
    then
      match Surgery.theorem2_paths g h ~k:2 s t with
      | None -> ok := false
      | Some paths ->
          if not (Path.pairwise_disjoint paths) then ok := false;
          List.iter
            (fun p ->
              if not (Path.is_valid g p) || Surgery.outside_count h p > 1 then ok := false)
            paths
  done;
  !ok

let prop_prop1_route_bound g =
  let r = 2 in
  let h = Remote_spanner.rem_span g ~r ~beta:1 in
  let rand = Rand.create (Graph.n g + 5) in
  let ok = ref true in
  for _ = 1 to 8 do
    let u = Rand.int rand (Graph.n g) and v = Rand.int rand (Graph.n g) in
    let d = Bfs.dist_pair g u v in
    if u <> v && d > 0 then
      match Prop1_route.construct g h ~r u v with
      | None -> ok := false
      | Some p ->
          if float_of_int (Path.length p) > Prop1_route.bound ~r d +. 1e-9 then ok := false
  done;
  !ok

let prop_edge_repair_sound g =
  if Graph.n g > 16 then true (* keep the O(n^2) flows cheap *)
  else begin
    let h, _ = Extensions.edge_repair g ~k:2 ~base:(Remote_spanner.two_connecting g) in
    Verify.is_edge_k_connecting g h ~alpha:1.0 ~beta:0.0 ~k:2
  end

let prop_edge_dk_below_vertex_dk g =
  let rand = Rand.create (Graph.n g + 11) in
  let ok = ref true in
  for _ = 1 to 8 do
    let s = Rand.int rand (Graph.n g) and t = Rand.int rand (Graph.n g) in
    if s <> t then begin
      let pv = Disjoint_paths.dk_profile g ~kmax:2 s t in
      let pe = Edge_disjoint.dk_profile g ~kmax:2 s t in
      if Array.length pe < Array.length pv then ok := false;
      Array.iteri (fun i dv -> if pe.(i) > dv then ok := false) pv
    end
  done;
  !ok

let prop_periodic_cold_start g =
  if not (Rs_graph.Connectivity.is_connected g) || Graph.n g < 2 then true
  else begin
    let module P = Rs_distributed.Periodic in
    let res =
      P.simulate ~initial:g ~events:[] ~period:3 ~radius:1 ~horizon:20
        ~tree_of:(fun g u -> Dom_tree_k.gdy_k g ~k:1 u) ()
    in
    res.P.matched.(19)
  end

let prop_edge_set_roundtrip g =
  let rand = Rand.create (Graph.n g + 13) in
  let s = Edge_set.create g in
  Graph.iter_edges (fun u v -> if Rand.bool rand then Edge_set.add s u v) g;
  let g' = Edge_set.to_graph s in
  Graph.n g' = Graph.n g && Graph.m g' = Edge_set.cardinal s

let prop_spanner_subset_of_graph g =
  Edge_set.subset (Remote_spanner.low_stretch g ~eps:1.0) (Edge_set.full g)

let () =
  Alcotest.run "props"
    [
      ( "remote_spanners",
        [
          make_test "exact_distance is (1,0)-RS" (arb_graph ~max_n:30) prop_exact_distance_rs;
          make_test "low_stretch eps=.5 is (1.5,0)-RS" (arb_graph ~max_n:25) prop_low_stretch_rs;
          make_test "rem_span r=2 b=1 is (2,-1)-RS" (arb_graph ~max_n:25) prop_rem_span_eps1;
          make_test "spanner edges subset of G" (arb_graph ~max_n:30) prop_spanner_subset_of_graph;
        ] );
      ( "dominating_trees",
        [
          make_test "gdy dominates" (arb_graph ~max_n:30) prop_gdy_trees_dominate;
          make_test "mis dominates" (arb_graph ~max_n:30) prop_mis_trees_dominate;
          make_test "gdy_k k=2" (arb_graph ~max_n:25) prop_gdy_k_trees;
          make_test "mis_k k=2" (arb_graph ~max_n:25) prop_mis_k_trees;
        ] );
      ( "k_connectivity",
        [
          make_test ~count:15 "two_connecting (2,-1)" (arb_graph ~max_n:14) prop_two_connecting;
          make_test ~count:15 "k_connecting (1,0)" (arb_graph ~max_n:14) prop_k_connecting;
          make_test "dk profile increasing" (arb_graph ~max_n:20) prop_dk_profile_increasing;
          make_test "min_sum_paths consistent" (arb_graph ~max_n:20) prop_min_sum_paths_consistent;
        ] );
      ( "mpr_baselines",
        [
          make_test "mpr flooding covers" (arb_graph ~max_n:30) prop_mpr_floods;
          make_test "greedy spanner (3,0)" (arb_graph ~max_n:25) prop_greedy_spanner_stretch;
          make_test "baswana-sen (3,0)" (arb_graph ~max_n:25) prop_baswana_sen_stretch;
          make_test "additive2 (1,2)" (arb_graph ~max_n:25) prop_additive2_stretch;
        ] );
      ( "proof_as_code",
        [
          make_test ~count:20 "surgery = theorem 2" (arb_graph ~max_n:18)
            prop_surgery_matches_theorem2;
          make_test ~count:25 "prop1 route bound" (arb_graph ~max_n:22) prop_prop1_route_bound;
        ] );
      ( "extensions",
        [
          make_test ~count:12 "edge repair sound" (arb_graph ~max_n:16) prop_edge_repair_sound;
          make_test ~count:25 "edge dk <= vertex dk" (arb_graph ~max_n:20)
            prop_edge_dk_below_vertex_dk;
          make_test ~count:12 "periodic cold start" (arb_graph ~max_n:14)
            prop_periodic_cold_start;
        ] );
      ( "optimal_and_certificates",
        [
          make_test ~count:12 "global optimum <= construction"
            (arb_graph ~max_n:10)
            (fun g ->
              match Optimal.exact_k_rs ~limit:2_000_000 g ~k:1 with
              | None -> true
              | Some opt ->
                  Edge_set.cardinal opt
                  <= Edge_set.cardinal (Remote_spanner.exact_distance g));
          make_test ~count:15 "extract_k21 certifies two_connecting"
            (arb_graph ~max_n:18)
            (fun g ->
              let h = Remote_spanner.two_connecting g in
              Graph.fold_vertices
                (fun acc u -> acc && Reference.extract_k21 g h ~k:2 u <> None)
                true g);
          make_test ~count:15 "lossless lossy flood = reliable flood"
            (arb_graph ~max_n:25)
            (fun g ->
              if Graph.n g = 0 then true
              else begin
                let relays u = Mpr.select g u in
                let a = Mpr.flood g ~relays ~src:0 in
                let b =
                  Mpr.flood_lossy (Rand.create 3) g ~relays ~src:0 ~loss:0.0
                in
                a.Mpr.reached = b.Mpr.reached
              end);
        ] );
      ( "infrastructure",
        [
          make_test ~count:20 "routing delivers shortest" (arb_graph ~max_n:16)
            prop_routing_delivers_with_exact_spanner;
          make_test ~count:20 "distributed = centralized" (arb_graph ~max_n:16)
            prop_distributed_matches_centralized;
          make_test "edge set roundtrip" (arb_graph ~max_n:30) prop_edge_set_roundtrip;
        ] );
    ]
