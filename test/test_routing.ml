(* Tests for link-state routing over advertised sub-graphs. *)
open Rs_graph
open Rs_core
open Rs_routing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let test_full_topology_routes_shortest () =
  List.iter
    (fun g ->
      let ls = Link_state.make g (Baseline.full g) in
      Graph.iter_vertices
        (fun s ->
          let d = Bfs.dist g s in
          Graph.iter_vertices
            (fun t ->
              if s <> t && d.(t) > 0 then
                match Link_state.route ls ~src:s ~dst:t with
                | None -> Alcotest.fail "must deliver"
                | Some p -> check_int "shortest" d.(t) (Path.length p))
            g)
        g)
    [ Gen.petersen (); Gen.grid 4 4; Gen.cycle 9 ]

let test_route_path_is_real () =
  let g = udg 111 50 in
  let ls = Link_state.make g (Remote_spanner.exact_distance g) in
  let d = Bfs.dist g 0 in
  Graph.iter_vertices
    (fun t ->
      if t <> 0 && d.(t) > 0 then
        match Link_state.route ls ~src:0 ~dst:t with
        | None -> Alcotest.fail "deliver"
        | Some p ->
            check "valid path in G" true (Path.is_valid g p);
            check_int "starts at src" 0 (Path.source p);
            check_int "ends at dst" t (Path.target p))
    g

let test_exact_spanner_routes_shortest () =
  (* over a (1,0)-remote-spanner greedy routing is exactly shortest *)
  List.iter
    (fun g ->
      let ls = Link_state.make g (Remote_spanner.exact_distance g) in
      let report = Link_state.measure_stretch ls in
      check_int "all delivered" report.Link_state.pairs report.Link_state.delivered;
      check "stretch 1.0" true (report.Link_state.worst_mult <= 1.0 +. 1e-9);
      check_int "no additive" 0 report.Link_state.worst_add)
    [ Gen.petersen (); Gen.grid 4 4; udg 113 40 ]

let test_low_stretch_spanner_bounded_routes () =
  let eps = 0.5 in
  List.iter
    (fun g ->
      let h = Remote_spanner.low_stretch g ~eps in
      let ls = Link_state.make g h in
      let report = Link_state.measure_stretch ls in
      check_int "all delivered" report.Link_state.pairs report.Link_state.delivered;
      (* every route obeys (1+eps) d + 1 - 2eps; the mult/add mix makes
         per-route check the strong assertion *)
      Graph.iter_vertices
        (fun s ->
          let d = Bfs.dist g s in
          Graph.iter_vertices
            (fun t ->
              if s <> t && d.(t) > 1 then
                match Link_state.route ls ~src:s ~dst:t with
                | None -> Alcotest.fail "deliver"
                | Some p ->
                    let len = float_of_int (Path.length p) in
                    let bound =
                      ((1.0 +. eps) *. float_of_int d.(t)) +. 1.0 -. (2.0 *. eps)
                    in
                    check "route bound" true (len <= bound +. 1e-9))
            g)
        g)
    [ Gen.grid 4 4; udg 115 35; Gen.cycle 11 ]

let test_bfs_tree_routing_delivers () =
  (* even a tree delivers (possibly with large stretch) *)
  let g = Gen.cycle 10 in
  let ls = Link_state.make g (Baseline.bfs_tree g ~root:0) in
  let report = Link_state.measure_stretch ls in
  check_int "all delivered" report.Link_state.pairs report.Link_state.delivered;
  check "stretch can exceed 1" true (report.Link_state.worst_mult >= 1.0)

let test_next_hop_none_cases () =
  let g = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  let ls = Link_state.make g (Baseline.full g) in
  check "unreachable" true (Link_state.next_hop ls ~src:0 ~dst:3 = None);
  check "self" true (Link_state.next_hop ls ~src:0 ~dst:0 = None)

let test_route_self () =
  let g = Gen.cycle 5 in
  let ls = Link_state.make g (Baseline.full g) in
  Alcotest.(check (option (list int))) "self" (Some [ 2 ]) (Link_state.route ls ~src:2 ~dst:2)

let test_advertisement_overhead () =
  let g = udg 117 100 in
  let full = Link_state.make g (Baseline.full g) in
  let sparse = Link_state.make g (Remote_spanner.exact_distance g) in
  check_int "full = 2m" (2 * Graph.m g) (Link_state.advertisement_size full);
  check "spanner cheaper" true
    (Link_state.advertisement_size sparse < Link_state.advertisement_size full)

let test_measure_stretch_sampled_pairs () =
  let g = Gen.grid 3 4 in
  let ls = Link_state.make g (Baseline.full g) in
  let report = Link_state.measure_stretch ~pairs:[ (0, 11); (11, 0) ] ls in
  check_int "two pairs" 2 report.Link_state.pairs;
  check_int "delivered" 2 report.Link_state.delivered

let test_wrong_host_rejected () =
  let g = Gen.cycle 5 and g2 = Gen.cycle 6 in
  let h = Edge_set.create g2 in
  check "host mismatch" true
    (match Link_state.make g h with _ -> false | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* One BFS per route = one H_c search per hop *)

(* random graphs, a quarter of them disconnected by construction (two
   vertex-disjoint halves), and sparse Gnp that often is *)
let graph_of_seed seed =
  let rand = Rand.create seed in
  let n = 2 + Rand.int rand 24 in
  match Rand.int rand 4 with
  | 0 -> Gen.erdos_renyi rand n (0.05 +. Rand.float rand 0.2)
  | 1 -> Gen.random_connected rand n 0.15
  | 2 -> udg (Rand.int rand 1_000_000) n
  | _ ->
      let half = n / 2 in
      let a = Gen.erdos_renyi rand (max 1 half) 0.4 in
      let b = Gen.erdos_renyi rand (n - max 1 half) 0.4 in
      let shift = Graph.n a in
      Graph.make ~n
        (Array.to_list (Graph.edges a)
        @ List.map (fun (u, v) -> (u + shift, v + shift)) (Array.to_list (Graph.edges b)))

let spanners g =
  [ ("exact", Remote_spanner.exact_distance g);
    ("low-stretch", Remote_spanner.low_stretch g ~eps:0.5);
    ("2-connecting", Remote_spanner.k_connecting g ~k:2);
    ("bfs_tree", Baseline.bfs_tree g ~root:0);
    ("full", Baseline.full g) ]

let qtest ?(count = 40) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       QCheck2.Gen.(map graph_of_seed (int_range 0 1_000_000))
       ~print:(fun g -> Format.asprintf "%a" Graph.pp g)
       prop)

let prop_route_matches_reference g =
  List.for_all
    (fun (_, h) ->
      let ls = Link_state.make g h and h_adj = Edge_set.to_adjacency h in
      let n = Graph.n g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if Link_state.route ls ~src ~dst <> Reference.route g h_adj ~src ~dst
             || Link_state.next_hop ls ~src ~dst <> Reference.next_hop g h_adj ~src ~dst
          then ok := false
        done
      done;
      !ok)
    (spanners g)

(* the integer fields of the destination-major report equal a per-pair
   walk with the reference forwarding *)
let prop_measure_stretch_matches_reference g =
  List.for_all
    (fun (_, h) ->
      let ls = Link_state.make g h and h_adj = Edge_set.to_adjacency h in
      let r = Link_state.measure_stretch ls in
      let pairs = ref 0 and delivered = ref 0 and worst_add = ref 0 and hops = ref 0 in
      Graph.iter_vertices
        (fun s ->
          Graph.iter_vertices
            (fun d ->
              let dg = Bfs.dist_pair g s d in
              if s <> d && dg > 0 then begin
                incr pairs;
                match Reference.route g h_adj ~src:s ~dst:d with
                | None -> ()
                | Some p ->
                    incr delivered;
                    hops := !hops + Path.length p;
                    worst_add := max !worst_add (Path.length p - dg)
              end)
            g)
        g;
      r.Link_state.pairs = !pairs
      && r.Link_state.delivered = !delivered
      && r.Link_state.worst_add = !worst_add
      && r.Link_state.hops_total = !hops)
    (spanners g)

let test_spanner_is_the_csr_of_h () =
  let g = udg 123 60 in
  let h = Remote_spanner.exact_distance g in
  let ls = Link_state.make g h in
  let sp = Link_state.spanner ls in
  check "same edges" true (Graph.edges sp = Array.of_list (Edge_set.to_list h));
  let adj = Edge_set.to_adjacency h in
  Graph.iter_vertices (fun u -> check "rows" true (Graph.neighbors sp u = adj.(u))) g;
  check_int "advert = 2|H|" (2 * Edge_set.cardinal h) (Link_state.advertisement_size ls)

(* ---------------------------------------------------------------- *)
(* Multipath *)

let test_multipath_routes_disjoint () =
  let g = udg 119 40 in
  let h = Remote_spanner.two_connecting g in
  let mp = Multipath.make g h in
  let found = ref 0 in
  Graph.iter_vertices
    (fun s ->
      Graph.iter_vertices
        (fun t ->
          if s < t && not (Graph.mem_edge g s t) then
            match Multipath.disjoint_routes mp ~k:2 ~src:s ~dst:t with
            | None -> ()
            | Some routes ->
                incr found;
                check "two routes" true (List.length routes = 2);
                List.iter (fun p -> check "valid" true (Path.is_valid g p)) routes;
                check "disjoint" true (Path.pairwise_disjoint routes))
        g)
    g;
  check "some pairs found" true (!found > 0)

let test_multipath_bounded_by_2conn_stretch () =
  (* total length of the two routes <= 2 d^2_G - 2 over the spanner *)
  let g = Gen.theta 2 4 in
  let h = Remote_spanner.two_connecting g in
  let mp = Multipath.make g h in
  match Multipath.disjoint_routes mp ~k:2 ~src:0 ~dst:1 with
  | None -> Alcotest.fail "routes exist"
  | Some routes ->
      let total = List.fold_left (fun a p -> a + Path.length p) 0 routes in
      let d2 = Option.get (Disjoint_paths.dk g ~k:2 0 1) in
      check "bounded" true (total <= (2 * d2) - 2)

let test_multipath_failure_experiment () =
  let g = udg 121 60 in
  let h = Remote_spanner.two_connecting g in
  let mp = Multipath.make g h in
  let r = Multipath.failure_experiment (Rand.create 5) mp ~trials:30 in
  check "ran trials" true (r.Multipath.trials > 0);
  (* disjointness makes survival certain *)
  check_int "backups always survive" r.Multipath.primary_hit r.Multipath.backup_survived;
  check "detour non-negative" true (r.Multipath.total_detour >= 0)

let test_multipath_none_when_not_2connected () =
  let g = Gen.path_graph 5 in
  let mp = Multipath.make g (Baseline.full g) in
  check "no 2 routes on a path" true (Multipath.disjoint_routes mp ~k:2 ~src:0 ~dst:4 = None)

let () =
  Alcotest.run "routing"
    [
      ( "routes",
        [
          Alcotest.test_case "full topology shortest" `Quick test_full_topology_routes_shortest;
          Alcotest.test_case "paths are real" `Quick test_route_path_is_real;
          Alcotest.test_case "(1,0)-RS shortest routes" `Quick test_exact_spanner_routes_shortest;
          Alcotest.test_case "low-stretch bounded routes" `Quick test_low_stretch_spanner_bounded_routes;
          Alcotest.test_case "tree delivers" `Quick test_bfs_tree_routing_delivers;
          Alcotest.test_case "next_hop none" `Quick test_next_hop_none_cases;
          Alcotest.test_case "route to self" `Quick test_route_self;
          qtest "route, next_hop = per-hop reference" prop_route_matches_reference;
          qtest "measure_stretch = per-pair reference" prop_measure_stretch_matches_reference;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "advertisement size" `Quick test_advertisement_overhead;
          Alcotest.test_case "sampled pairs" `Quick test_measure_stretch_sampled_pairs;
          Alcotest.test_case "host mismatch" `Quick test_wrong_host_rejected;
          Alcotest.test_case "spanner is H's CSR" `Quick test_spanner_is_the_csr_of_h;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "disjoint routes" `Quick test_multipath_routes_disjoint;
          Alcotest.test_case "2-conn stretch bound" `Quick test_multipath_bounded_by_2conn_stretch;
          Alcotest.test_case "failure experiment" `Quick test_multipath_failure_experiment;
          Alcotest.test_case "not 2-connected" `Quick test_multipath_none_when_not_2connected;
        ] );
    ]
