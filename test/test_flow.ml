(* Tests for min-cost flow, disjoint paths and connectivity. *)
open Rs_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Mincost_flow *)

let test_flow_simple_path () =
  let net = Mincost_flow.create 3 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:2;
  Mincost_flow.add_arc net ~src:1 ~dst:2 ~cap:1 ~cost:3;
  Alcotest.(check (list int)) "one unit cost 5" [ 5 ]
    (Mincost_flow.min_cost_units net ~s:0 ~t_:2 ~max_units:4)

let test_flow_picks_cheaper_path_first () =
  let net = Mincost_flow.create 4 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Mincost_flow.add_arc net ~src:1 ~dst:3 ~cap:1 ~cost:1;
  Mincost_flow.add_arc net ~src:0 ~dst:2 ~cap:1 ~cost:5;
  Mincost_flow.add_arc net ~src:2 ~dst:3 ~cap:1 ~cost:5;
  Alcotest.(check (list int)) "2 then 10" [ 2; 10 ]
    (Mincost_flow.min_cost_units net ~s:0 ~t_:3 ~max_units:3)

let test_flow_needs_rerouting () =
  (* Classic case where the second augmentation must push flow back:
     0->1 (c0), 1->3 (c0), 0->2 (c1), 2->3 (c1), and a middle arc
     1->2 (c0). First unit greedily goes 0-1-2-3? No: costs make
     0-1-3 cost 0 first, then second must use 0-2-3 cost 2. With the
     middle arc the optimum stays the same, but a naive path search
     without residuals would fail on:
     0->1 cap1 c0 ; 1->3 cap1 c0 ; 0->2 cap1 c0 ; 2->3 cap1 c0;
     1->2 cap1 c0 when first path is forced through 1->2. *)
  let net = Mincost_flow.create 4 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:0;
  Mincost_flow.add_arc net ~src:1 ~dst:2 ~cap:1 ~cost:0;
  Mincost_flow.add_arc net ~src:2 ~dst:3 ~cap:1 ~cost:0;
  Mincost_flow.add_arc net ~src:1 ~dst:3 ~cap:1 ~cost:3;
  Mincost_flow.add_arc net ~src:0 ~dst:2 ~cap:1 ~cost:3;
  let units = Mincost_flow.min_cost_units net ~s:0 ~t_:3 ~max_units:2 in
  check_int "both units" 2 (List.length units);
  check_int "total cost 6" 6 (List.fold_left ( + ) 0 units)

let test_flow_saturates () =
  let net = Mincost_flow.create 2 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:2 ~cost:1;
  Alcotest.(check (list int)) "cap 2" [ 1; 1 ]
    (Mincost_flow.min_cost_units net ~s:0 ~t_:1 ~max_units:5)

let test_flow_disconnected () =
  let net = Mincost_flow.create 3 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:1;
  Alcotest.(check (list int)) "none" []
    (Mincost_flow.min_cost_units net ~s:0 ~t_:2 ~max_units:1)

let test_flow_monotone_unit_costs () =
  (* successive augmentations have non-decreasing real cost *)
  let rand = Rand.create 5 in
  for _trial = 1 to 20 do
    let n = 8 in
    let net = Mincost_flow.create n in
    for _ = 1 to 20 do
      let a = Rand.int rand n and b = Rand.int rand n in
      if a <> b then Mincost_flow.add_arc net ~src:a ~dst:b ~cap:1 ~cost:(Rand.int rand 5)
    done;
    let units = Mincost_flow.min_cost_units net ~s:0 ~t_:(n - 1) ~max_units:4 in
    let rec mono = function
      | a :: (b :: _ as rest) -> a <= b && mono rest
      | _ -> true
    in
    check "monotone" true (mono units)
  done

let test_flow_on_and_arcs () =
  let net = Mincost_flow.create 3 in
  Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:2 ~cost:1;
  Mincost_flow.add_arc net ~src:1 ~dst:2 ~cap:1 ~cost:1;
  Mincost_flow.add_arc net ~src:0 ~dst:2 ~cap:1 ~cost:5;
  ignore (Mincost_flow.min_cost_units net ~s:0 ~t_:2 ~max_units:2);
  check_int "arc 0 carries 1" 1 (Mincost_flow.flow_on net ~arc:0);
  check_int "arc 1 carries 1" 1 (Mincost_flow.flow_on net ~arc:1);
  check_int "arc 2 carries 1" 1 (Mincost_flow.flow_on net ~arc:2);
  let with_flow = Mincost_flow.arcs_with_flow net in
  check_int "three flowing arcs" 3 (List.length with_flow);
  List.iter (fun (_, _, f) -> check "positive" true (f > 0)) with_flow

let test_flow_rejects_negative () =
  let net = Mincost_flow.create 2 in
  check "negative cap" true
    (match Mincost_flow.add_arc net ~src:0 ~dst:1 ~cap:(-1) ~cost:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "node range" true
    (match Mincost_flow.add_arc net ~src:0 ~dst:5 ~cap:1 ~cost:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Disjoint_paths *)

let theta34 = Gen.theta 3 4 (* 3 disjoint paths of length 5 between 0 and 1 *)

let test_dk_theta () =
  Alcotest.(check (option int)) "d1" (Some 5) (Disjoint_paths.dk theta34 ~k:1 0 1);
  Alcotest.(check (option int)) "d2" (Some 10) (Disjoint_paths.dk theta34 ~k:2 0 1);
  Alcotest.(check (option int)) "d3" (Some 15) (Disjoint_paths.dk theta34 ~k:3 0 1);
  Alcotest.(check (option int)) "d4 absent" None (Disjoint_paths.dk theta34 ~k:4 0 1)

let test_dk_profile_cycle () =
  let c = Gen.cycle 7 in
  (* between antipodal-ish nodes 0 and 3: paths of length 3 and 4 *)
  let p = Disjoint_paths.dk_profile c ~kmax:3 0 3 in
  Alcotest.(check (array int)) "profile" [| 3; 7 |] p

let test_dk_adjacent_pair () =
  let k4 = Gen.complete 4 in
  (* adjacent s,t: direct edge, then 2 two-hop paths *)
  let p = Disjoint_paths.dk_profile k4 ~kmax:3 0 1 in
  Alcotest.(check (array int)) "k4 profile" [| 1; 3; 5 |] p

let test_max_disjoint () =
  check_int "theta" 3 (Disjoint_paths.max_disjoint theta34 0 1);
  check_int "petersen" 3 (Disjoint_paths.max_disjoint (Gen.petersen ()) 0 7);
  check_int "path" 1 (Disjoint_paths.max_disjoint (Gen.path_graph 5) 0 4);
  let g = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  check_int "disconnected" 0 (Disjoint_paths.max_disjoint g 0 3)

let test_min_sum_paths_valid_and_disjoint () =
  match Disjoint_paths.min_sum_paths theta34 ~k:3 0 1 with
  | None -> Alcotest.fail "expected 3 paths"
  | Some paths ->
      check_int "three" 3 (List.length paths);
      List.iter (fun p -> check "valid" true (Path.is_valid theta34 p)) paths;
      List.iter
        (fun p ->
          check_int "src" 0 (Path.source p);
          check_int "dst" 1 (Path.target p))
        paths;
      check "disjoint" true (Path.pairwise_disjoint paths);
      check_int "total length 15" 15
        (List.fold_left (fun acc p -> acc + Path.length p) 0 paths)

let test_min_sum_paths_infeasible () =
  check "infeasible" true (Disjoint_paths.min_sum_paths (Gen.path_graph 4) ~k:2 0 3 = None)

(* k comes from clients ("paths a b k"): a huge one must cost what the
   graph allows, not a k-sized array. 10^6 keeps a regression at 8 MB. *)
let test_huge_k_is_bounded () =
  let words f =
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
  in
  ignore (Disjoint_paths.min_sum_paths theta34 ~k:1 0 1);
  check "max_int paths" true (Disjoint_paths.min_sum_paths theta34 ~k:max_int 0 1 = None);
  Alcotest.(check (array int)) "max_int profile" [| 5; 10; 15 |]
    (Disjoint_paths.dk_profile theta34 ~kmax:max_int 0 1);
  Alcotest.(check (option int)) "max_int dk" None (Disjoint_paths.dk theta34 ~k:max_int 0 1);
  check "paths words" true (words (fun () -> Disjoint_paths.min_sum_paths theta34 ~k:1_000_000 0 1) < 1000.);
  check "profile words" true (words (fun () -> Disjoint_paths.dk_profile theta34 ~kmax:1_000_000 0 1) < 1000.)

let test_dk_vs_bruteforce_small () =
  (* d^1 must equal BFS distance on assorted graphs *)
  List.iter
    (fun g ->
      let n = Graph.n g in
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if s <> t then begin
            let bfs = Bfs.dist_pair g s t in
            let d1 = Disjoint_paths.dk g ~k:1 s t in
            match d1 with
            | None -> check_int "both unreachable" (-1) bfs
            | Some d -> check_int "d1 = bfs" bfs d
          end
        done
      done)
    [ Gen.petersen (); Gen.cycle 5; Gen.grid 3 4; Gen.complete 5 ]

(* The implicit-residual engine against the built-network reference
   (test/reference.ml), in both modes, on random graphs — some
   disconnected — and on the five spanner families the serving stack
   answers [paths] queries over: each as a plain graph, and as H_s
   (the augmented entry points) against a built H_s. *)
let case_of_seed seed =
  let rand = Rand.create seed in
  let n = 2 + Rand.int rand 22 in
  let g =
    match Rand.int rand 4 with
    | 0 -> Gen.erdos_renyi rand n (0.05 +. Rand.float rand 0.25)
    | 1 -> Gen.random_connected rand n 0.2
    | 2 ->
        let side = sqrt (float_of_int n /. 3.0) in
        Rs_geometry.Unit_ball.udg (Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side)
    | _ ->
        (* two dense halves with no edge between them *)
        let half = max 1 (n / 2) in
        Graph.make ~n
          (List.filter
             (fun (u, v) -> (u < half) = (v < half))
             (Array.to_list (Graph.edges (Gen.erdos_renyi rand n 0.5))))
  in
  let open Rs_core in
  ( g,
    [ Remote_spanner.exact_distance g;
      Remote_spanner.low_stretch g ~eps:0.5;
      Remote_spanner.k_connecting g ~k:2;
      Baseline.bfs_tree g ~root:0;
      Baseline.full g ] )

let for_all_pairs g f =
  let ok = ref true in
  for s = 0 to Graph.n g - 1 do
    for t = 0 to Graph.n g - 1 do
      if s <> t && not (f s t) then ok := false
    done
  done;
  !ok

(* [prop ~plain ~augmented]: [plain x] for G and every spanner as a
   graph, [augmented g h] for every spanner h. *)
let qtest name ~plain ~augmented =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:30
       QCheck2.Gen.(map case_of_seed (int_range 0 1_000_000))
       (fun (g, hs) ->
         List.for_all plain (g :: List.map Edge_set.to_graph hs)
         && List.for_all (augmented g) hs))

let modes = Disjoint_paths.[ (Vertex, Reference.dk_profile); (Edge, Reference.edge_dk_profile) ]

let prop_dk_profile_plain g =
  for_all_pairs g (fun s t ->
      List.for_all
        (fun kmax ->
          Disjoint_paths.dk_profile g ~kmax s t = Reference.dk_profile g ~kmax s t
          && Edge_disjoint.dk_profile g ~kmax s t = Reference.edge_dk_profile g ~kmax s t)
        [ 1; 2; 3 ])

let prop_dk_profile_augmented g h =
  let hg = Edge_set.to_graph h in
  for_all_pairs g (fun s t ->
      let hs = Reference.augmented g h s in
      List.for_all
        (fun (mode, reference) ->
          List.for_all
            (fun kmax ->
              Disjoint_paths.augmented_profile mode g hg ~kmax s t = reference hs ~kmax s t)
            [ 1; 2; 3 ])
        modes)

let total paths = List.fold_left (fun acc p -> acc + Path.length p) 0 paths

(* The third path must reroute along cancelled flow, so a round whose
   Dijkstra ran on raw costs (no potential update) settles a node too
   early and reports 11; random graphs this small hit such a case in
   well under one pair in a thousand. *)
let test_potentials_witness () =
  let g =
    Graph.make ~n:11
      [ (0, 4); (0, 6); (0, 7); (1, 4); (2, 3); (2, 4); (3, 5); (3, 8); (5, 6); (5, 9);
        (5, 10); (6, 10); (7, 8); (7, 9); (8, 10) ]
  in
  Alcotest.(check (array int)) "profile" [| 1; 5; 10 |] (Disjoint_paths.dk_profile g ~kmax:3 7 0);
  Alcotest.(check (array int)) "reference" [| 1; 5; 10 |] (Reference.dk_profile g ~kmax:3 7 0);
  match Disjoint_paths.min_sum_paths g ~k:3 7 0 with
  | None -> Alcotest.fail "three paths exist"
  | Some ps ->
      check_int "total" 10 (total ps);
      check "disjoint" true (Path.pairwise_disjoint ps)

(* [paths] is a valid system in [x]: k paths from s to t of total
   [cost], pairwise disjoint in [mode]'s sense *)
let valid_system mode x ~k ~cost s t paths =
  List.length paths = k
  && total paths = cost
  && List.for_all (fun p -> Path.is_valid x p && Path.source p = s && Path.target p = t) paths
  &&
  match mode with
  | Disjoint_paths.Vertex -> Path.pairwise_disjoint paths
  | Edge -> Edge_disjoint.edges_pairwise_disjoint paths

(* Equal-cost systems may differ edge for edge, so the engine's paths
   are checked for cost, validity and disjointness in the network the
   reference solved. *)
let agrees mode x ~k ~reference s t found =
  let profile = reference x ~kmax:k s t in
  match found with
  | None -> Array.length profile < k
  | Some ps -> Array.length profile = k && valid_system mode x ~k ~cost:profile.(k - 1) s t ps

let prop_min_sum_paths_plain g =
  for_all_pairs g (fun s t ->
      List.for_all
        (fun k ->
          (match (Disjoint_paths.min_sum_paths g ~k s t, Reference.min_sum_paths g ~k s t) with
          | None, None -> true
          | Some ps, Some rs -> valid_system Vertex g ~k ~cost:(total rs) s t ps
          | _ -> false)
          && agrees Edge g ~k ~reference:Reference.edge_dk_profile s t
               (Edge_disjoint.min_sum_paths g ~k s t))
        [ 1; 2; 3 ])

let prop_min_sum_paths_augmented g h =
  let hg = Edge_set.to_graph h in
  for_all_pairs g (fun s t ->
      let hs = Reference.augmented g h s in
      List.for_all
        (fun (mode, reference) ->
          List.for_all
            (fun k ->
              agrees mode hs ~k ~reference s t
                (Disjoint_paths.augmented_min_sum_paths mode g hg ~k s t))
            [ 1; 2; 3 ])
        modes)

(* ------------------------------------------------------------------ *)
(* Connectivity *)

let test_components () =
  let g = Graph.make ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let label = Connectivity.components g in
  check "same comp" true (label.(0) = label.(2));
  check "diff comp" true (label.(0) <> label.(3));
  check_int "count" 2 (Connectivity.component_count g)

let test_is_connected () =
  check "cycle" true (Connectivity.is_connected (Gen.cycle 4));
  check "empty graph" true (Connectivity.is_connected (Gen.empty 0));
  check "single" true (Connectivity.is_connected (Gen.empty 1));
  check "two isolated" false (Connectivity.is_connected (Gen.empty 2))

let test_pair_connectivity_petersen () =
  (* Petersen graph is 3-connected *)
  let g = Gen.petersen () in
  Graph.iter_vertices
    (fun s ->
      Graph.iter_vertices
        (fun t ->
          if s < t && not (Graph.mem_edge g s t) then
            check_int "3-connected" 3 (Connectivity.pair_connectivity g s t))
        g)
    g

let test_k_connected_pair () =
  check "2-conn cycle" true (Connectivity.is_k_connected_pair (Gen.cycle 6) ~k:2 0 3);
  check "not 3-conn cycle" false (Connectivity.is_k_connected_pair (Gen.cycle 6) ~k:3 0 3);
  check "k=0 trivial" true (Connectivity.is_k_connected_pair (Gen.empty 2) ~k:0 0 1)

let test_min_degree () =
  check_int "path" 1 (Connectivity.min_degree (Gen.path_graph 4));
  check_int "cycle" 2 (Connectivity.min_degree (Gen.cycle 5));
  check_int "empty" 0 (Connectivity.min_degree (Gen.empty 3))

let test_cut_vertices_basic () =
  Alcotest.(check (list int)) "path internals" [ 1; 2; 3 ]
    (Connectivity.cut_vertices (Gen.path_graph 5));
  Alcotest.(check (list int)) "cycle none" [] (Connectivity.cut_vertices (Gen.cycle 6));
  Alcotest.(check (list int)) "star center" [ 0 ] (Connectivity.cut_vertices (Gen.star 5));
  Alcotest.(check (list int)) "petersen none" []
    (Connectivity.cut_vertices (Gen.petersen ()));
  (* bow-tie: two triangles sharing vertex 2 *)
  let bowtie = Graph.make ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  Alcotest.(check (list int)) "bowtie hinge" [ 2 ] (Connectivity.cut_vertices bowtie)

let test_cut_vertices_barbell () =
  (* barbell 4: bridge endpoints 3 and 4 are the articulation points *)
  Alcotest.(check (list int)) "barbell" [ 3; 4 ] (Connectivity.cut_vertices (Gen.barbell 4))

let test_cut_vertices_match_removal () =
  (* brute-force cross-check: v is a cut vertex iff deleting it
     increases the component count of its component *)
  let rand = Rand.create 71 in
  for _trial = 1 to 10 do
    let g = Gen.erdos_renyi rand 14 0.18 in
    let fast = Connectivity.cut_vertices g in
    let slow =
      Graph.fold_vertices
        (fun acc v ->
          if Graph.degree g v = 0 then acc
          else begin
            (* remove_vertex leaves v isolated: discount that one
               component; v is an articulation point iff the rest
               splits further *)
            let g' = Graph.remove_vertex g v in
            let before = Connectivity.component_count g in
            let after = Connectivity.component_count g' - 1 in
            if after > before then v :: acc else acc
          end)
        [] g
    in
    Alcotest.(check (list int)) "agree" (List.sort compare slow) fast
  done

let test_bridges () =
  Alcotest.(check (list (pair int int))) "path all" [ (0, 1); (1, 2); (2, 3) ]
    (Connectivity.bridges (Gen.path_graph 4));
  Alcotest.(check (list (pair int int))) "cycle none" [] (Connectivity.bridges (Gen.cycle 5));
  Alcotest.(check (list (pair int int))) "barbell bridge" [ (3, 4) ]
    (Connectivity.bridges (Gen.barbell 4))

let () =
  Alcotest.run "flow"
    [
      ( "mincost_flow",
        [
          Alcotest.test_case "simple path" `Quick test_flow_simple_path;
          Alcotest.test_case "cheaper path first" `Quick test_flow_picks_cheaper_path_first;
          Alcotest.test_case "rerouting via residuals" `Quick test_flow_needs_rerouting;
          Alcotest.test_case "saturation" `Quick test_flow_saturates;
          Alcotest.test_case "disconnected" `Quick test_flow_disconnected;
          Alcotest.test_case "monotone unit costs" `Quick test_flow_monotone_unit_costs;
          Alcotest.test_case "flow_on / arcs_with_flow" `Quick test_flow_on_and_arcs;
          Alcotest.test_case "rejects bad arcs" `Quick test_flow_rejects_negative;
        ] );
      ( "disjoint_paths",
        [
          Alcotest.test_case "theta d^k" `Quick test_dk_theta;
          Alcotest.test_case "cycle profile" `Quick test_dk_profile_cycle;
          Alcotest.test_case "adjacent pair" `Quick test_dk_adjacent_pair;
          Alcotest.test_case "max disjoint" `Quick test_max_disjoint;
          Alcotest.test_case "paths valid+disjoint" `Quick test_min_sum_paths_valid_and_disjoint;
          Alcotest.test_case "infeasible" `Quick test_min_sum_paths_infeasible;
          Alcotest.test_case "huge k is bounded" `Quick test_huge_k_is_bounded;
          Alcotest.test_case "d^1 = bfs" `Quick test_dk_vs_bruteforce_small;
          qtest "dk_profile = network reference" ~plain:prop_dk_profile_plain
            ~augmented:prop_dk_profile_augmented;
          Alcotest.test_case "potentials witness" `Quick test_potentials_witness;
          qtest "min_sum_paths = network reference" ~plain:prop_min_sum_paths_plain
            ~augmented:prop_min_sum_paths_augmented;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          Alcotest.test_case "petersen 3-connected" `Quick test_pair_connectivity_petersen;
          Alcotest.test_case "k-connected pair" `Quick test_k_connected_pair;
          Alcotest.test_case "min degree" `Quick test_min_degree;
          Alcotest.test_case "cut vertices" `Quick test_cut_vertices_basic;
          Alcotest.test_case "cut vertices barbell" `Quick test_cut_vertices_barbell;
          Alcotest.test_case "cut vertices = removal test" `Quick test_cut_vertices_match_removal;
          Alcotest.test_case "bridges" `Quick test_bridges;
        ] );
    ]
