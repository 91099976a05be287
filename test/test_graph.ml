(* Unit tests for the graph substrate: Graph, Edge_set, Bfs, Path. *)
open Rs_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let petersen = Gen.petersen ()
let p5 = Gen.path_graph 5
let c6 = Gen.cycle 6
let k5 = Gen.complete 5

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_make_dedup () =
  let g = Graph.make ~n:3 [ (0, 1); (1, 0); (1, 2); (1, 2) ] in
  check_int "m" 2 (Graph.m g);
  check "mem 0 1" true (Graph.mem_edge g 0 1);
  check "mem 1 0" true (Graph.mem_edge g 1 0);
  check "mem 0 2" false (Graph.mem_edge g 0 2)

let test_make_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop at 1")
    (fun () -> ignore (Graph.make ~n:3 [ (1, 1) ]))

let test_make_rejects_range () =
  match Graph.make ~n:3 [ (0, 3) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_neighbors_sorted () =
  let g = Graph.make ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_degrees () =
  check_int "deg path end" 1 (Graph.degree p5 0);
  check_int "deg path mid" 2 (Graph.degree p5 2);
  check_int "max deg k5" 4 (Graph.max_degree k5);
  check_int "petersen 3-regular" 3 (Graph.max_degree petersen)

let test_edge_ids_roundtrip () =
  Graph.iter_edges
    (fun u v ->
      let id = Graph.edge_id petersen u v in
      Alcotest.(check (pair int int)) "roundtrip" (u, v) (Graph.edge petersen id))
    petersen

let test_edge_id_symmetric () =
  check_int "id sym" (Graph.edge_id p5 0 1) (Graph.edge_id p5 1 0)

let test_edge_id_missing () =
  check "raises" true
    (match Graph.edge_id p5 0 4 with _ -> false | exception Not_found -> true)

let test_induced () =
  let h, back = Graph.induced petersen [| 0; 1; 2; 5 |] in
  check_int "n" 4 (Graph.n h);
  (* edges among {0,1,2,5}: 0-1, 1-2, 0-5 *)
  check_int "m" 3 (Graph.m h);
  Alcotest.(check (array int)) "back" [| 0; 1; 2; 5 |] back

let test_remove_vertex () =
  let g = Graph.remove_vertex k5 0 in
  check_int "n unchanged" 5 (Graph.n g);
  check_int "m" 6 (Graph.m g);
  check_int "isolated" 0 (Graph.degree g 0)

let test_union_edges () =
  let g = Graph.union_edges p5 [ (0, 4) ] in
  check_int "m" 5 (Graph.m g);
  check "new edge" true (Graph.mem_edge g 0 4)

let test_equal () =
  check "equal self" true (Graph.equal p5 (Gen.path_graph 5));
  check "not equal" false (Graph.equal p5 c6)

(* ------------------------------------------------------------------ *)
(* Edge_set *)

let test_edge_set_basic () =
  let s = Edge_set.create p5 in
  check_int "empty" 0 (Edge_set.cardinal s);
  Edge_set.add s 0 1;
  Edge_set.add s 1 0;
  check_int "idempotent add" 1 (Edge_set.cardinal s);
  check "mem" true (Edge_set.mem s 1 0);
  Edge_set.remove s 0 1;
  check_int "removed" 0 (Edge_set.cardinal s)

let test_edge_set_full_and_subset () =
  let f = Edge_set.full c6 in
  check_int "full card" 6 (Edge_set.cardinal f);
  let s = Edge_set.create c6 in
  Edge_set.add s 0 1;
  check "subset" true (Edge_set.subset s f);
  check "not superset" false (Edge_set.subset f s)

let test_edge_set_union_into () =
  let a = Edge_set.create c6 and b = Edge_set.create c6 in
  Edge_set.add a 0 1;
  Edge_set.add b 1 2;
  Edge_set.add b 0 1;
  Edge_set.union_into a b;
  check_int "union card" 2 (Edge_set.cardinal a)

let test_edge_set_adjacency () =
  let s = Edge_set.create petersen in
  Edge_set.add s 0 1;
  Edge_set.add s 0 5;
  let adj = Edge_set.to_adjacency s in
  Alcotest.(check (array int)) "adj 0" [| 1; 5 |] adj.(0);
  Alcotest.(check (array int)) "adj 1" [| 0 |] adj.(1);
  Alcotest.(check (array int)) "adj 2" [||] adj.(2)

let test_edge_set_to_graph () =
  let s = Edge_set.create petersen in
  Edge_set.add s 0 1;
  let g = Edge_set.to_graph s in
  check_int "n preserved" 10 (Graph.n g);
  check_int "m" 1 (Graph.m g)

let test_edge_set_mem_nonedge () =
  let s = Edge_set.full p5 in
  check "non-edge" false (Edge_set.mem s 0 4)

(* ------------------------------------------------------------------ *)
(* Bfs *)

let test_bfs_path_distances () =
  let d = Bfs.dist p5 0 in
  Alcotest.(check (array int)) "dists" [| 0; 1; 2; 3; 4 |] d

let test_bfs_radius () =
  let d = Bfs.dist ~radius:2 p5 0 in
  Alcotest.(check (array int)) "radius cut" [| 0; 1; 2; -1; -1 |] d

let test_bfs_unreachable () =
  let g = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  let d = Bfs.dist g 0 in
  Alcotest.(check (array int)) "components" [| 0; 1; -1; -1 |] d

let test_bfs_pair () =
  check_int "pair" 4 (Bfs.dist_pair p5 0 4);
  check_int "pair same" 0 (Bfs.dist_pair p5 2 2);
  let g = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  check_int "pair disconnected" (-1) (Bfs.dist_pair g 0 3)

let test_bfs_parents_deterministic () =
  let parent = Bfs.parents c6 0 in
  check_int "parent of 1" 0 parent.(1);
  check_int "parent of 5" 0 parent.(5);
  (* vertex 3 is reached through 2 (smallest-id BFS ordering) *)
  check_int "parent of 3" 2 parent.(3)

let test_ball_sphere () =
  let b = Bfs.ball petersen 0 1 in
  Alcotest.(check (array int)) "ball 1" [| 0; 1; 4; 5 |] b;
  let s = Bfs.sphere petersen 0 2 in
  check_int "sphere 2 size" 6 (Array.length s);
  let s1 = Bfs.sphere p5 0 3 in
  Alcotest.(check (array int)) "sphere path" [| 3 |] s1

let test_diameter () =
  check_int "path" 4 (Bfs.diameter p5);
  check_int "cycle" 3 (Bfs.diameter c6);
  check_int "complete" 1 (Bfs.diameter k5);
  check_int "petersen" 2 (Bfs.diameter petersen);
  let g = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  check_int "disconnected" (-1) (Bfs.diameter g)

let test_augmented_dist () =
  (* H = only edge (2,3) of the path; H_0 adds 0-1. d_{H_0}(0,1)=1,
     rest unreachable except via nothing. *)
  let h = Edge_set.create p5 in
  Edge_set.add h 2 3;
  let adj = Edge_set.to_adjacency h in
  let d = Bfs.augmented_dist p5 adj 0 in
  Alcotest.(check (array int)) "aug" [| 0; 1; -1; -1; -1 |] d

let test_augmented_dist_through_neighbors () =
  (* G = C6. H = all edges except 0-1 and 0-5. H_0 restores them. *)
  let h = Edge_set.full c6 in
  Edge_set.remove h 0 1;
  Edge_set.remove h 0 5;
  let adj = Edge_set.to_adjacency h in
  let d = Bfs.augmented_dist c6 adj 0 in
  Alcotest.(check (array int)) "aug full ring" [| 0; 1; 2; 3; 2; 1 |] d

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_basic () =
  check_int "len" 2 (Path.length [ 0; 1; 2 ]);
  check_int "len single" 0 (Path.length [ 3 ]);
  check_int "source" 0 (Path.source [ 0; 1; 2 ]);
  check_int "target" 2 (Path.target [ 0; 1; 2 ])

let test_path_valid () =
  check "valid" true (Path.is_valid p5 [ 0; 1; 2; 3 ]);
  check "broken edge" false (Path.is_valid p5 [ 0; 2 ]);
  check "repeat" false (Path.is_valid c6 [ 0; 1; 0 ]);
  check "empty" false (Path.is_valid p5 [])

let test_path_valid_in () =
  let h = Edge_set.create p5 in
  Edge_set.add h 0 1;
  check "in set" true (Path.is_valid_in h [ 0; 1 ]);
  check "not in set" false (Path.is_valid_in h [ 1; 2 ])

let test_path_internal () =
  Alcotest.(check (list int)) "internal" [ 1; 2 ] (Path.internal [ 0; 1; 2; 3 ]);
  Alcotest.(check (list int)) "internal short" [] (Path.internal [ 0; 1 ]);
  Alcotest.(check (list int)) "internal single" [] (Path.internal [ 7 ])

let test_path_disjoint () =
  check "disjoint" true (Path.pairwise_disjoint [ [ 0; 1; 5 ]; [ 0; 2; 5 ]; [ 0; 3; 5 ] ]);
  check "shared internal" false (Path.pairwise_disjoint [ [ 0; 1; 5 ]; [ 2; 1; 6 ] ]);
  check "shared endpoints ok" true (Path.pairwise_disjoint [ [ 0; 1; 5 ]; [ 0; 2; 5 ] ])

let test_path_concat () =
  Alcotest.(check (list int)) "concat" [ 0; 1; 2; 3 ] (Path.concat [ 0; 1; 2 ] [ 2; 3 ]);
  check "mismatch" true
    (match Path.concat [ 0; 1 ] [ 2; 3 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_path_of_parents () =
  let parent = Bfs.parents p5 0 in
  Alcotest.(check (list int)) "of_parents" [ 0; 1; 2; 3 ] (Path.of_parents parent 3)

(* ------------------------------------------------------------------ *)
(* Heap *)

module IntHeap = Heap.Make (Int)

let test_heap_sorts () =
  let h = IntHeap.create () in
  let rand = Rand.create 99 in
  let keys = Array.init 200 (fun _ -> Rand.int rand 1000) in
  Array.iteri (fun i k -> IntHeap.push h k i) keys;
  check_int "size" 200 (IntHeap.size h);
  let prev = ref min_int in
  let popped = ref 0 in
  let rec drain () =
    match IntHeap.pop h with
    | None -> ()
    | Some (k, _) ->
        check "ascending" true (k >= !prev);
        prev := k;
        incr popped;
        drain ()
  in
  drain ();
  check_int "all popped" 200 !popped

let test_heap_interleaved () =
  let h = IntHeap.create () in
  IntHeap.push h 5 0;
  IntHeap.push h 1 1;
  Alcotest.(check (option (pair int int))) "min first" (Some (1, 1)) (IntHeap.pop h);
  IntHeap.push h 3 2;
  IntHeap.push h 0 3;
  Alcotest.(check (option (pair int int))) "new min" (Some (0, 3)) (IntHeap.pop h);
  Alcotest.(check (option (pair int int))) "then 3" (Some (3, 2)) (IntHeap.pop h);
  Alcotest.(check (option (pair int int))) "then 5" (Some (5, 0)) (IntHeap.pop h);
  Alcotest.(check (option (pair int int))) "empty" None (IntHeap.pop h)

let test_heap_duplicates () =
  let h = IntHeap.create () in
  for i = 0 to 9 do
    IntHeap.push h 7 i
  done;
  let count = ref 0 in
  let rec drain () =
    match IntHeap.pop h with
    | Some (7, _) ->
        incr count;
        drain ()
    | Some _ -> Alcotest.fail "wrong key"
    | None -> ()
  in
  drain ();
  check_int "all ten" 10 !count

(* ------------------------------------------------------------------ *)
(* Rand *)

let test_rand_deterministic () =
  let a = Rand.create 42 and b = Rand.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rand.int a 1000) (Rand.int b 1000)
  done

let test_rand_bounds () =
  let r = Rand.create 7 in
  for _ = 1 to 1000 do
    let x = Rand.int r 10 in
    check "in range" true (x >= 0 && x < 10);
    let f = Rand.float r 2.5 in
    check "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rand_poisson_mean () =
  let r = Rand.create 3 in
  let trials = 2000 in
  let sum = ref 0 in
  for _ = 1 to trials do
    sum := !sum + Rand.poisson r 5.0
  done;
  let mean = float_of_int !sum /. float_of_int trials in
  check "poisson mean near 5" true (mean > 4.5 && mean < 5.5)

let test_rand_shuffle_permutation () =
  let r = Rand.create 11 in
  let a = Array.init 50 Fun.id in
  Rand.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* [patch] is [make] of the merged list: same edge array, same CSR,
   same ids — over random removal/addition subsets of random graphs,
   the empty patch included — and it rejects every broken contract *)
let test_patch_equals_make () =
  let rand = Rand.create 77 in
  for trial = 0 to 59 do
    let n = 2 + Rand.int rand 14 in
    let g = Gen.erdos_renyi rand n (Rand.float rand 0.6) in
    let removed = List.filter (fun _ -> Rand.int rand 3 = 0) (Array.to_list (Graph.edges g)) in
    let added = ref [] in
    for u = n - 1 downto 0 do
      for v = n - 1 downto u + 1 do
        if (not (Graph.mem_edge g u v)) && Rand.int rand 4 = 0 then added := (u, v) :: !added
      done
    done;
    let added = !added in
    let p = Graph.patch g ~added ~removed in
    let kept = List.filter (fun e -> not (List.mem e removed)) (Array.to_list (Graph.edges g)) in
    let r = Graph.make ~n (kept @ added) in
    let name what = Printf.sprintf "trial %d: %s" trial what in
    check (name "edges") true (Graph.edges p = Graph.edges r);
    check (name "csr") true (Graph.csr p = Graph.csr r);
    Graph.iter_edges
      (fun u v ->
        check_int (name "edge id") (Graph.edge_id r u v) (Graph.edge_id p u v);
        check_int (name "edge id (reversed)") (Graph.edge_id r v u) (Graph.edge_id p v u))
      r;
    for u = 0 to n - 1 do
      check (name "neighbors") true (Graph.neighbors p u = Graph.neighbors r u)
    done
  done;
  let rejects what ~added ~removed =
    check what true
      (match Graph.patch p5 ~added ~removed with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  rejects "removing an absent edge" ~added:[] ~removed:[ (0, 2) ];
  rejects "adding a present edge" ~added:[ (1, 2) ] ~removed:[];
  rejects "unsorted additions" ~added:[ (1, 3); (0, 4) ] ~removed:[];
  rejects "unsorted removals" ~added:[] ~removed:[ (2, 3); (0, 1) ];
  rejects "non-canonical addition" ~added:[ (3, 0) ] ~removed:[];
  rejects "out-of-range addition" ~added:[ (0, 5) ] ~removed:[];
  rejects "add and remove one edge" ~added:[ (0, 2) ] ~removed:[ (0, 2) ]

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "make dedups" `Quick test_make_dedup;
          Alcotest.test_case "rejects self-loops" `Quick test_make_rejects_self_loop;
          Alcotest.test_case "rejects out-of-range" `Quick test_make_rejects_range;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "edge id roundtrip" `Quick test_edge_ids_roundtrip;
          Alcotest.test_case "edge id symmetric" `Quick test_edge_id_symmetric;
          Alcotest.test_case "edge id missing" `Quick test_edge_id_missing;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "remove vertex" `Quick test_remove_vertex;
          Alcotest.test_case "union edges" `Quick test_union_edges;
          Alcotest.test_case "patch = make of the merged list" `Quick test_patch_equals_make;
          Alcotest.test_case "equality" `Quick test_equal;
        ] );
      ( "edge_set",
        [
          Alcotest.test_case "basic ops" `Quick test_edge_set_basic;
          Alcotest.test_case "full/subset" `Quick test_edge_set_full_and_subset;
          Alcotest.test_case "union_into" `Quick test_edge_set_union_into;
          Alcotest.test_case "to_adjacency" `Quick test_edge_set_adjacency;
          Alcotest.test_case "to_graph" `Quick test_edge_set_to_graph;
          Alcotest.test_case "mem non-edge" `Quick test_edge_set_mem_nonedge;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path distances" `Quick test_bfs_path_distances;
          Alcotest.test_case "radius cut" `Quick test_bfs_radius;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "pair distance" `Quick test_bfs_pair;
          Alcotest.test_case "deterministic parents" `Quick test_bfs_parents_deterministic;
          Alcotest.test_case "ball and sphere" `Quick test_ball_sphere;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "augmented distances" `Quick test_augmented_dist;
          Alcotest.test_case "augmented via neighbors" `Quick test_augmented_dist_through_neighbors;
        ] );
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basic;
          Alcotest.test_case "validity" `Quick test_path_valid;
          Alcotest.test_case "validity in set" `Quick test_path_valid_in;
          Alcotest.test_case "internal vertices" `Quick test_path_internal;
          Alcotest.test_case "disjointness" `Quick test_path_disjoint;
          Alcotest.test_case "concat" `Quick test_path_concat;
          Alcotest.test_case "of_parents" `Quick test_path_of_parents;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        ] );
      ( "rand",
        [
          Alcotest.test_case "deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "bounds" `Quick test_rand_bounds;
          Alcotest.test_case "poisson mean" `Quick test_rand_poisson_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rand_shuffle_permutation;
        ] );
    ]
