open Rs_graph
module Setcover = Rs_setcover.Setcover
module Obs = Rs_obs.Obs

let c_trees = Obs.counter "domtree/trees_built"
let c_relays = Obs.counter "domtree_k/relays"
let h_sphere = Obs.histogram "domtree_k/sphere_size"

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
   a star edge at the root). The per-root wrapper collects the pairs;
   the batched builder ([Sharded]) feeds its int edge accumulators.
   [sphere] is the 2-sphere of [u], ascending id. *)
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
  let sphere = sphere2_of s in
  Dom_tree.collect s u (fun ~mem:_ ~add -> gdy_k_emit g ~k ~sphere u ~add)

(* Edge-emitting core of Algorithm 5, over the CSR like {!gdy_k_emit},
   with membership [mem]/[add] as in {!Dom_tree.gdy_emit}. A mis_k tree
   has depth <= 2: the relays are root children and each is its own
   first hop; the other members are sphere nodes, attached under a
   relay that is their first hop, kept in [hop] over sphere positions.
   The 2-sphere sets S and X are flags over [sphere] positions too;
   [sphere] is id-sorted, so the smallest-id pick is the first live
   position. *)
let mis_k_emit g ~k ~sphere u ~mem ~add =
  Obs.incr c_trees;
  let ns = Array.length sphere in
  if Obs.enabled () then Obs.observe h_sphere (float_of_int ns);
  let elt_of = Hashtbl.create ns in
  Array.iteri (fun i v -> Hashtbl.replace elt_of v i) sphere;
  let hop = Array.make ns 0 in
  let common w = Graph.mem_edge g u w in
  let dominated v =
    let all_in = ref true and hops = ref [] and nhops = ref 0 in
    Graph.iter_neighbors g v (fun x ->
        let c = common x in
        if c && not (mem x) then all_in := false;
        if x <> u && mem x then begin
          let h = if c then x else hop.(Hashtbl.find elt_of x) in
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
          if not (mem x) then begin
            add y1 x;
            hop.(!i) <- y1
          end;
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
  let sphere = sphere2_of s in
  Dom_tree.collect s u (mis_k_emit g ~k ~sphere u)
