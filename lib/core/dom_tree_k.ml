open Rs_graph
module Setcover = Rs_setcover.Setcover
module Obs = Rs_obs.Obs

let c_trees = Obs.counter "domtree/trees_built"
let c_relays = Obs.counter "domtree_k/relays"
let h_sphere = Obs.histogram "domtree_k/sphere_size"

let disjoint_branch_count g t ~beta v =
  let u = Tree.root t in
  let hops = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      if x <> u && Tree.mem t x && Tree.depth t x <= 1 + beta then
        Hashtbl.replace hops (Tree.first_hop t x) ())
    (Graph.neighbors g v);
  Hashtbl.length hops

let common_neighbors g u v =
  Array.to_list (Graph.neighbors g v) |> List.filter (fun w -> Graph.mem_edge g u w)

let is_k_dominating g ~k ~beta t =
  let u = Tree.root t in
  Tree.edges_in g t
  && begin
       let dist = Bfs.dist ~radius:2 g u in
       let ok = ref true in
       Graph.iter_vertices
         (fun v ->
           if dist.(v) = 2 then begin
             let covered =
               disjoint_branch_count g t ~beta v >= k
               || List.for_all
                    (fun w -> Tree.mem t w && Tree.parent t w = u)
                    (common_neighbors g u v)
             in
             if not covered then ok := false
           end)
         g;
       !ok
     end

(* Removal rule shared by both algorithms, instantiated with the
   "already fully used" predicate and the disjointness requirement. *)

let scratch_or = function Some s -> s | None -> Bfs.Scratch.create ()

(* The 2-sphere of the last scratch run, ascending id (the order the
   historical iter_vertices scan produced). *)
let sphere2_of s =
  let acc = ref [] in
  for i = Bfs.Scratch.visited_count s - 1 downto 0 do
    let v = Bfs.Scratch.visited s i in
    if Bfs.Scratch.dist s v = 2 then acc := v :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort Int.compare a;
  a

(* Edge-emitting core: everything after the radius-2 traversal,
   abstracted over edge storage ([add u relay] — every emitted edge is
   a star edge at the root). The Tree.t wrapper instantiates it with a
   real [Tree.t]; the batched builder ([Sharded]) feeds int edge
   accumulators. [sphere] is the 2-sphere of [u], ascending id. *)
let gdy_k_emit g ~k ~sphere u ~add =
  Obs.incr c_trees;
  if Obs.enabled () then Obs.observe h_sphere (float_of_int (Array.length sphere));
  (* "Cover every sphere node v by min(k, |N(u) ∩ N(v)|) relays,
     repeatedly picking the relay covering most unsatisfied nodes
     (smallest id on ties)" is exactly greedy k-multicover with the
     relays N(u) as sets — N(u) is id-sorted, so smallest set index =
     smallest relay id and the lazy greedy reproduces the historical
     pick sequence. *)
  let elt_of = Hashtbl.create (Array.length sphere) in
  Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
  (* u's sorted neighbor list, materialized over the CSR: the batched
     path must not force the graph's lazy per-vertex adjacency *)
  let relays = Array.make (Graph.degree g u) 0 in
  let i = ref 0 in
  Graph.iter_neighbors g u (fun w ->
      relays.(!i) <- w;
      incr i);
  let ball_of x =
    let acc = ref [] in
    Graph.iter_neighbors g x (fun w ->
        match Hashtbl.find_opt elt_of w with Some i -> acc := i :: !acc | None -> ());
    Array.of_list !acc
  in
  let inst = { Setcover.universe = Array.length sphere; sets = Array.map ball_of relays } in
  let picks = Setcover.greedy_multicover inst ~k in
  List.iter
    (fun sid ->
      Obs.incr c_relays;
      add u relays.(sid))
    picks;
  (* every 2-sphere node has a common neighbor with u, so the greedy
     multicover always saturates the (capped) demands *)
  assert (Setcover.is_cover inst ~k picks)

let gdy_k ?scratch g ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.gdy_k: k < 1";
  let s = scratch_or scratch in
  Bfs.Scratch.run ~radius:2 s g u;
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let sphere = sphere2_of s in
  gdy_k_emit g ~k ~sphere u ~add:(fun p c -> Tree.add_edge t ~parent:p ~child:c);
  t

(* Edge-emitting core of Algorithm 5, over the CSR like {!gdy_k_emit}.
   A mis_k tree has depth <= 2 (root, relays, attached sphere nodes),
   so the tree-parent relation alone (-1 off the tree; a stamped array
   in the batched builder) gives membership and first hops: a relay is
   its own first hop, a sphere node's is its parent. The 2-sphere sets S and X
   are flags over [sphere] positions; [sphere] is id-sorted, so the
   smallest-id pick is the first live position. *)
let mis_k_emit g ~k ~sphere ~parent u ~add =
  Obs.incr c_trees;
  let ns = Array.length sphere in
  if Obs.enabled () then Obs.observe h_sphere (float_of_int ns);
  let elt_of = Hashtbl.create ns in
  Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
  let mem v = parent v >= 0 in
  let common w = Graph.mem_edge g u w in
  let dominated v =
    let all_in = ref true and hops = ref [] and nhops = ref 0 in
    Graph.iter_neighbors g v (fun x ->
        if common x && not (mem x) then all_in := false;
        if x <> u && mem x then begin
          let p = parent x in
          let h = if p = u then x else p in
          if not (List.mem h !hops) then begin
            hops := h :: !hops;
            incr nhops
          end
        end);
    !all_in || !nhops >= k
  in
  let s = Array.make ns true in
  let prune () =
    for i = 0 to ns - 1 do
      if s.(i) && dominated sphere.(i) then s.(i) <- false
    done
  in
  for _round = 1 to k do
    let x_set = Array.copy s in
    let rec pick i = if i >= ns || (s.(i) && x_set.(i)) then i else pick (i + 1) in
    let i = ref (pick 0) in
    while !i < ns do
      let x = sphere.(!i) in
      (* the first k common neighbors of u and x not yet in the tree *)
      let fresh = ref [] and nfresh = ref 0 in
      Graph.iter_neighbors g x (fun y ->
          if !nfresh < k && common y && not (mem y) then begin
            fresh := y :: !fresh;
            incr nfresh
          end);
      (* The paper's invariant: a picked x always has a fresh common
         neighbor, else the first removal rule would have pruned it. *)
      (match List.rev !fresh with
      | y1 :: rest ->
          add u y1;
          if not (mem x) then add y1 x;
          List.iter (fun y -> add u y) rest
      | [] -> assert false);
      prune ();
      (* X := X \ B_G(x, 1) *)
      x_set.(!i) <- false;
      Graph.iter_neighbors g x (fun w ->
          match Hashtbl.find_opt elt_of w with Some j -> x_set.(j) <- false | None -> ());
      i := pick !i
    done
  done;
  (* By Proposition 7 the loop empties S; keep a defensive check so a
     violated invariant fails loudly in tests rather than silently. *)
  assert (not (Array.exists Fun.id s))

let mis_k ?scratch g ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.mis_k: k < 1";
  let s = scratch_or scratch in
  Bfs.Scratch.run ~radius:2 s g u;
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  mis_k_emit g ~k ~sphere:(sphere2_of s)
    ~parent:(fun v -> if Tree.mem t v then Tree.parent t v else -1)
    u
    ~add:(fun p c -> Tree.add_edge t ~parent:p ~child:c);
  t

let extract_k21 g h ~k u =
  if k < 1 then invalid_arg "Dom_tree_k.extract_k21: k < 1";
  let t = Tree.create ~n:(Graph.n g) ~root:u in
  let dist = Bfs.dist ~radius:2 g u in
  let s = Hashtbl.create 64 in
  Graph.iter_vertices (fun v -> if dist.(v) = 2 then Hashtbl.replace s v ()) g;
  let h_relays_of x =
    (* common neighbors of u and x reachable as H-relays: u-y in H *)
    common_neighbors g u x |> List.filter (fun y -> Edge_set.mem h u y)
  in
  let dominated v =
    common_neighbors g u v
    |> List.for_all (fun w -> Tree.mem t w && Tree.parent t w = u)
    || disjoint_branch_count g t ~beta:1 v >= k
  in
  let prune () =
    Hashtbl.iter (fun v () -> if dominated v then Hashtbl.remove s v) (Hashtbl.copy s)
  in
  prune ();
  for _round = 1 to k do
    let x_set = Hashtbl.copy s in
    let continue = ref true in
    while !continue && Hashtbl.length x_set > 0 && Hashtbl.length s > 0 do
      let x =
        Hashtbl.fold
          (fun v () acc -> if Hashtbl.mem s v && (acc < 0 || v < acc) then v else acc)
          x_set (-1)
      in
      if x < 0 then continue := false
      else begin
        let fresh = h_relays_of x |> List.filter (fun y -> not (Tree.mem t y)) in
        let connectors = List.filter (fun y -> Edge_set.mem h x y) fresh in
        (match connectors with
        | y1 :: _ when not (Tree.mem t x) ->
            Tree.add_edge t ~parent:u ~child:y1;
            Tree.add_edge t ~parent:y1 ~child:x;
            List.filteri (fun i _ -> i < k - 1) (List.filter (( <> ) y1) fresh)
            |> List.iter (fun y -> Tree.add_edge t ~parent:u ~child:y)
        | _ ->
            List.filteri (fun i _ -> i < k) fresh
            |> List.iter (fun y -> Tree.add_edge t ~parent:u ~child:y));
        prune ();
        Hashtbl.remove x_set x;
        Array.iter (fun w -> Hashtbl.remove x_set w) (Graph.neighbors g x)
      end
    done
  done;
  if Hashtbl.length s = 0 && is_k_dominating g ~k ~beta:1 t then Some t else None
