(* Equivalence and allocation tests for the hot-path overhaul: the
   CSR / scratch / lazy-greedy implementations must be byte-identical
   to the straightforward pre-overhaul algorithms (re-implemented here
   as references), and the scratch paths must not re-allocate per-call
   adjacency. Determinism is load-bearing: the paper's tie-break
   arguments and the distributed-vs-centralized tests both rely on it. *)
open Rs_graph
open Rs_core
module Setcover = Rs_setcover.Setcover
module Obs = Rs_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let gnp seed n p = Gen.erdos_renyi (Rand.create seed) n p

(* one UDG and one Gnp per seed: the two families exercise different
   degree profiles (doubling vs. concentrated) *)
let instances =
  lazy
    (List.concat_map
       (fun seed -> [ udg (100 + seed) 120; gnp (200 + seed) 80 0.08 ])
       [ 1; 2; 3 ])

(* ---------- references: the pre-overhaul implementations ---------- *)

(* Textbook queue BFS for distances, then the canonical parent rule
   applied as an independent post-pass: the parent of [v] is its
   smallest-id neighbor at distance d(v) - 1 — a property of the graph
   alone, which the incremental min-tracking in [Bfs.Scratch] must
   reproduce exactly. *)
let ref_bfs ?radius g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) and parent = Array.make n (-1) in
  dist.(src) <- 0;
  parent.(src) <- src;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let expand = match radius with None -> true | Some r -> dist.(u) < r in
    if expand then
      Array.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            parent.(v) <- u;
            Queue.push v q
          end)
        (Graph.neighbors g u)
  done;
  for v = 0 to n - 1 do
    if dist.(v) > 0 then
      Array.iter
        (fun w -> if dist.(w) = dist.(v) - 1 && w < parent.(v) then parent.(v) <- w)
        (Graph.neighbors g v)
  done;
  (dist, parent)

(* Eager greedy k-multicover: full rescan of all sets per round, max
   residual coverage, smallest index on ties (pre-overhaul
   Setcover.greedy_with_demand, verbatim semantics). *)
let ref_greedy_multicover inst ~k =
  let demand = Array.map (fun c -> min k c) (Setcover.demand_cap inst) in
  let nsets = Array.length inst.Setcover.sets in
  let used = Array.make nsets false in
  let residual s =
    if used.(s) then -1
    else begin
      let seen = Hashtbl.create 8 in
      let count = ref 0 in
      Array.iter
        (fun e ->
          if demand.(e) > 0 && not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            incr count
          end)
        inst.Setcover.sets.(s);
      !count
    end
  in
  let total = ref (Array.fold_left ( + ) 0 demand) in
  let picks = ref [] in
  while !total > 0 do
    let best = ref (-1) and best_cov = ref 0 in
    for s = 0 to nsets - 1 do
      let c = residual s in
      if c > !best_cov then begin
        best := s;
        best_cov := c
      end
    done;
    if !best < 0 then total := 0
    else begin
      used.(!best) <- true;
      picks := !best :: !picks;
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun e ->
          if demand.(e) > 0 && not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            demand.(e) <- demand.(e) - 1;
            decr total
          end)
        inst.Setcover.sets.(!best)
    end
  done;
  List.rev !picks

(* Pre-overhaul DomTreeGdy: double full BFS, per-layer eager cover. *)
let ref_gdy g ~r ~beta u =
  let dist, parent = ref_bfs ~radius:(r + beta) g u in
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  for r' = 2 to r do
    let sphere = ref [] and annulus = ref [] in
    Graph.iter_vertices
      (fun v ->
        if dist.(v) = r' then sphere := v :: !sphere;
        if dist.(v) >= r' - 1 && dist.(v) <= r' - 1 + beta then annulus := v :: !annulus)
      g;
    let sphere = Array.of_list (List.rev !sphere) in
    let annulus = Array.of_list (List.rev !annulus) in
    let elt_of = Hashtbl.create 16 in
    Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
    let ball_of x =
      let acc = ref [] in
      (match Hashtbl.find_opt elt_of x with Some i -> acc := [ i ] | None -> ());
      Array.iter
        (fun w ->
          match Hashtbl.find_opt elt_of w with Some i -> acc := i :: !acc | None -> ())
        (Graph.neighbors g x);
      Array.of_list !acc
    in
    let sets = Array.map ball_of annulus in
    let alive = Array.make (Array.length sphere) true in
    let remaining = ref (Array.length sphere) in
    let used = Array.make (Array.length annulus) false in
    let coverage s =
      Array.fold_left (fun acc e -> if alive.(e) then acc + 1 else acc) 0 sets.(s)
    in
    while !remaining > 0 do
      let best = ref (-1) and best_cov = ref 0 in
      Array.iteri
        (fun s _ ->
          if not used.(s) then begin
            let c = coverage s in
            if c > !best_cov then begin
              best := s;
              best_cov := c
            end
          end)
        annulus;
      assert (!best >= 0);
      used.(!best) <- true;
      Tree.graft_parents t parent annulus.(!best);
      Array.iter
        (fun e ->
          if alive.(e) then begin
            alive.(e) <- false;
            decr remaining
          end)
        sets.(!best)
    done
  done;
  t

(* Pre-overhaul DomTreeMIS: increasing (distance, id) over B(u,r)\B(u,1). *)
let ref_mis g ~r u =
  let dist, parent = ref_bfs ~radius:r g u in
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let b = ref [] in
  Graph.iter_vertices (fun v -> if dist.(v) >= 2 && dist.(v) <= r then b := v :: !b) g;
  let order = Array.of_list !b in
  Array.sort (fun a b -> compare (dist.(a), a) (dist.(b), b)) order;
  let alive = Array.make (Graph.n g) false in
  Array.iter (fun v -> alive.(v) <- true) order;
  Array.iter
    (fun x ->
      if alive.(x) then begin
        Tree.graft_parents t parent x;
        alive.(x) <- false;
        Array.iter (fun w -> alive.(w) <- false) (Graph.neighbors g x)
      end)
    order;
  t

(* Pre-overhaul DomTreeGdy_{2,0,k}: eager max-coverage relay picking. *)
let ref_gdy_k g ~k u =
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let dist, _ = ref_bfs ~radius:2 g u in
  let common_in_m in_m v =
    Array.to_list (Graph.neighbors g v)
    |> List.filter (fun w -> Graph.mem_edge g u w)
    |> fun common ->
    ( List.for_all (fun w -> in_m.(w)) common,
      List.length (List.filter (fun w -> in_m.(w)) common) )
  in
  let in_m = Array.make (Graph.n g) false in
  let alive = Hashtbl.create 64 in
  Graph.iter_vertices (fun v -> if dist.(v) = 2 then Hashtbl.replace alive v ()) g;
  let covered_enough v =
    let all, cnt = common_in_m in_m v in
    all || cnt >= k
  in
  while Hashtbl.length alive > 0 do
    let best = ref (-1) and best_cov = ref 0 in
    Array.iter
      (fun x ->
        if not in_m.(x) then begin
          let c =
            Array.fold_left
              (fun acc w -> if Hashtbl.mem alive w then acc + 1 else acc)
              0 (Graph.neighbors g x)
          in
          if c > !best_cov then begin
            best := x;
            best_cov := c
          end
        end)
      (Graph.neighbors g u);
    assert (!best >= 0);
    in_m.(!best) <- true;
    Tree.add_edge t ~parent:u ~child:!best;
    Hashtbl.iter
      (fun v () -> if covered_enough v then Hashtbl.remove alive v)
      (Hashtbl.copy alive)
  done;
  t

(* Pre-emit-core DomTreeMIS_{2,1,k}: Hashtbl sphere sets, membership
   and first hops read off a [Tree.t] (the Dom_tree_k.mis_k body before
   it moved onto the CSR emit core, verbatim apart from the sphere). *)
let ref_mis_k g ~k u =
  let common_neighbors g u v =
    Array.to_list (Graph.neighbors g v) |> List.filter (fun w -> Graph.mem_edge g u w)
  in
  let disjoint_branch_count = Dom_tree_k.disjoint_branch_count in
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let dist, _ = ref_bfs ~radius:2 g u in
  let s = Hashtbl.create 64 in
  Graph.iter_vertices (fun v -> if dist.(v) = 2 then Hashtbl.replace s v ()) g;
  let dominated v =
    common_neighbors g u v |> List.for_all (fun w -> Tree.mem t w)
    || disjoint_branch_count g t ~beta:1 v >= k
  in
  let prune () =
    Hashtbl.iter (fun v () -> if dominated v then Hashtbl.remove s v) (Hashtbl.copy s)
  in
  for _round = 1 to k do
    let x_set = Hashtbl.copy s in
    let continue = ref true in
    while !continue && Hashtbl.length x_set > 0 && Hashtbl.length s > 0 do
      (* pick the smallest-id x in S ∩ X *)
      let x =
        Hashtbl.fold
          (fun v () acc -> if Hashtbl.mem s v && (acc < 0 || v < acc) then v else acc)
          x_set (-1)
      in
      if x < 0 then continue := false
      else begin
        let fresh =
          common_neighbors g u x |> List.filter (fun y -> not (Tree.mem t y))
        in
        assert (fresh <> []);
        let chosen = List.filteri (fun i _ -> i < k) fresh in
        (match chosen with
        | y1 :: rest ->
            Tree.add_edge t ~parent:u ~child:y1;
            if not (Tree.mem t x) then Tree.add_edge t ~parent:y1 ~child:x;
            List.iter (fun y -> Tree.add_edge t ~parent:u ~child:y) rest
        | [] -> assert false);
        prune ();
        (* X := X \ B_G(x, 1) *)
        Hashtbl.remove x_set x;
        Array.iter (fun w -> Hashtbl.remove x_set w) (Graph.neighbors g x)
      end
    done
  done;
  assert (Hashtbl.length s = 0);
  t

let tree_equal t1 t2 =
  Tree.root t1 = Tree.root t2
  && List.sort compare (Tree.edges t1) = List.sort compare (Tree.edges t2)
  && List.for_all (fun v -> Tree.depth t1 v = Tree.depth t2 v) (Tree.vertices t1)

(* ---------- CSR core ---------- *)

let test_csr_matches_neighbors () =
  List.iter
    (fun g ->
      let off, nbr = Graph.csr g in
      check_int "off length" (Graph.n g + 1) (Array.length off);
      check_int "nbr length" (2 * Graph.m g) (Array.length nbr);
      Graph.iter_vertices
        (fun u ->
          let a = Graph.neighbors g u in
          check_int "degree" (Array.length a) (Graph.degree g u);
          check "csr slice" true (Array.sub nbr off.(u) (Graph.degree g u) = a);
          let via_iter = ref [] in
          Graph.iter_neighbors g u (fun v -> via_iter := v :: !via_iter);
          check "iter_neighbors" true (Array.of_list (List.rev !via_iter) = a);
          check_int "fold_neighbors" (Array.length a)
            (Graph.fold_neighbors g u (fun acc _ -> acc + 1) 0))
        g)
    (Lazy.force instances)

let test_mem_edge_and_edge_id () =
  List.iter
    (fun g ->
      let n = Graph.n g in
      (* membership agrees with a linear scan on a deterministic pair grid *)
      for u = 0 to min (n - 1) 40 do
        for v = 0 to min (n - 1) 40 do
          let slow = u <> v && Array.exists (( = ) v) (Graph.neighbors g u) in
          check "mem_edge" slow (Graph.mem_edge g u v)
        done
      done;
      Array.iteri
        (fun i (a, b) ->
          check_int "edge_id fwd" i (Graph.edge_id g a b);
          check_int "edge_id bwd" i (Graph.edge_id g b a);
          check "edge round-trip" true (Graph.edge g i = (a, b)))
        (Graph.edges g))
    (Lazy.force instances)

(* ---------- BFS scratch ---------- *)

let test_scratch_matches_reference () =
  let scratch = Bfs.Scratch.create () in
  List.iter
    (fun g ->
      List.iter
        (fun radius ->
          let src = 0 in
          let rdist, rparent = ref_bfs ?radius g src in
          check "dist" true
            ((match radius with
             | None -> Bfs.dist g src
             | Some r -> Bfs.dist ~radius:r g src)
            = rdist);
          check "parents" true
            ((match radius with
             | None -> Bfs.parents g src
             | Some r -> Bfs.parents ~radius:r g src)
            = rparent);
          Bfs.Scratch.run ?radius scratch g src;
          Graph.iter_vertices
            (fun v ->
              check_int "scratch dist" rdist.(v) (Bfs.Scratch.dist scratch v);
              check_int "scratch parent" rparent.(v) (Bfs.Scratch.parent scratch v))
            g)
        [ None; Some 2; Some 3 ])
    (Lazy.force instances)

let test_dist_pair_radius () =
  List.iter
    (fun g ->
      let rdist, _ = ref_bfs g 0 in
      Graph.iter_vertices
        (fun v ->
          check_int "pair full" rdist.(v) (Bfs.dist_pair g 0 v);
          let expect2 = if rdist.(v) >= 0 && rdist.(v) <= 2 then rdist.(v) else -1 in
          check_int "pair radius 2" expect2 (Bfs.dist_pair ~radius:2 g 0 v))
        g)
    (Lazy.force instances)

let test_dist_pair_records_trivial_run () =
  let g = gnp 9 30 0.1 in
  let runs = Obs.counter "bfs/runs" in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let before = Obs.counter_value runs in
      check_int "u = v is 0" 0 (Bfs.dist_pair g 5 5);
      check_int "still counted as a run" (before + 1) (Obs.counter_value runs))

(* Reusing a warm scratch must not allocate: no per-call adjacency, no
   n-length re-initialization (Gc.allocated_bytes counts minor + direct
   major allocations). *)
let alloc_bytes f =
  ignore (Sys.opaque_identity (f ()));
  let b0 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. b0

let test_scratch_run_allocation_free () =
  let g = udg 7 400 in
  let s = Bfs.Scratch.create () in
  let bytes = alloc_bytes (fun () -> Bfs.Scratch.run s g 0) in
  check "scratch run allocates nothing" true (bytes < 512.0)

let test_dist_allocates_only_result () =
  let g = udg 7 400 in
  let n = Graph.n g in
  (* result array (n words) + slack; the pre-overhaul implementation
     also rebuilt an n-length adjacency and a fresh queue (~3n words) *)
  let budget = float_of_int ((16 * n) + 1024) in
  check "dist" true (alloc_bytes (fun () -> Bfs.dist g 0) < budget);
  check "parents" true (alloc_bytes (fun () -> Bfs.parents g 0) < budget)

(* ---------- lazy greedy vs eager reference ---------- *)

let test_lazy_greedy_matches_eager () =
  let rand = Rand.create 77 in
  for _trial = 1 to 60 do
    let universe = 1 + Rand.int rand 12 in
    let nsets = 1 + Rand.int rand 10 in
    let sets =
      Array.init nsets (fun _ ->
          Array.init (Rand.int rand 6) (fun _ -> Rand.int rand universe))
    in
    let inst = { Setcover.universe; sets } in
    List.iter
      (fun k ->
        check "picks identical" true
          (Setcover.greedy_multicover inst ~k = ref_greedy_multicover inst ~k))
      [ 1; 2; 3 ]
  done

(* ---------- tree constructions vs references ---------- *)

let roots g = [ 0; Graph.n g / 2; Graph.n g - 1 ]

let test_gdy_matches_reference () =
  let scratch = Bfs.Scratch.create () in
  List.iter
    (fun g ->
      List.iter
        (fun (r, beta) ->
          List.iter
            (fun u ->
              check "gdy tree" true
                (tree_equal (Dom_tree.gdy ~scratch g ~r ~beta u) (ref_gdy g ~r ~beta u)))
            (roots g))
        [ (2, 0); (2, 1); (3, 1) ])
    (Lazy.force instances)

let test_mis_matches_reference () =
  let scratch = Bfs.Scratch.create () in
  List.iter
    (fun g ->
      List.iter
        (fun u ->
          check "mis tree" true (tree_equal (Dom_tree.mis ~scratch g ~r:3 u) (ref_mis g ~r:3 u)))
        (roots g))
    (Lazy.force instances)

let test_gdy_k_matches_reference () =
  let scratch = Bfs.Scratch.create () in
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          List.iter
            (fun u ->
              check "gdy_k tree" true
                (tree_equal (Dom_tree_k.gdy_k ~scratch g ~k u) (ref_gdy_k g ~k u)))
            (roots g))
        [ 1; 2 ])
    (Lazy.force instances)

let test_mis_k_matches_reference () =
  let scratch = Bfs.Scratch.create () in
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          Graph.iter_vertices
            (fun u ->
              check "mis_k tree" true
                (tree_equal (Dom_tree_k.mis_k ~scratch g ~k u) (ref_mis_k g ~k u)))
            g)
        [ 1; 2; 3 ])
    (Lazy.force instances)

(* Shared scratch across roots must not leak state between trees: the
   whole spanner is identical to fresh-scratch-per-root. *)
let test_scratch_reuse_identical_spanners () =
  List.iter
    (fun g ->
      let shared = Bfs.Scratch.create () in
      let with_shared = Edge_set.create g in
      let with_fresh = Edge_set.create g in
      Graph.iter_vertices
        (fun u -> Tree.add_to with_shared (Dom_tree.gdy ~scratch:shared g ~r:3 ~beta:1 u))
        g;
      Graph.iter_vertices
        (fun u -> Tree.add_to with_fresh (Dom_tree.gdy g ~r:3 ~beta:1 u))
        g;
      check "spanner identical" true (Edge_set.equal with_shared with_fresh))
    (Lazy.force instances)

let () =
  Alcotest.run "hotpath"
    [
      ( "csr",
        [
          Alcotest.test_case "neighbors agree" `Quick test_csr_matches_neighbors;
          Alcotest.test_case "mem_edge and edge_id" `Quick test_mem_edge_and_edge_id;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "matches reference BFS" `Quick test_scratch_matches_reference;
          Alcotest.test_case "dist_pair radius" `Quick test_dist_pair_radius;
          Alcotest.test_case "dist_pair trivial run counted" `Quick
            test_dist_pair_records_trivial_run;
          Alcotest.test_case "run is allocation-free" `Quick test_scratch_run_allocation_free;
          Alcotest.test_case "dist allocates only the result" `Quick
            test_dist_allocates_only_result;
        ] );
      ( "lazy-greedy",
        [ Alcotest.test_case "matches eager picks" `Quick test_lazy_greedy_matches_eager ] );
      ( "trees",
        [
          Alcotest.test_case "gdy matches reference" `Quick test_gdy_matches_reference;
          Alcotest.test_case "mis matches reference" `Quick test_mis_matches_reference;
          Alcotest.test_case "gdy_k matches reference" `Quick test_gdy_k_matches_reference;
          Alcotest.test_case "mis_k matches reference" `Quick test_mis_k_matches_reference;
          Alcotest.test_case "scratch reuse leaks nothing" `Quick
            test_scratch_reuse_identical_spanners;
        ] );
    ]
