(* Literal reference copies of the dominating-tree definitions over
   flat pair trees: the oracle that [Rs_core.Certificate], the
   library's only checker, is compared against. Also home of
   [extract_k21], the constructive audit of Proposition 4's premise
   that only the tests run, and of the straightforward routing and
   disjoint-path engines that [Link_state] and [Disjoint_paths]
   replaced (a fresh BFS of H_c per hop; a built min-cost-flow
   network per query, vertex-split or not; H_s built as a graph), and
   of the sequential stretch sweep that [Verify]'s per-source kernel
   and the per-pair H_s rebuild that [Extensions.edge_repair]
   replaced. Everything reads the definitions word for word and
   favours clarity over speed: trees are hashtables, distances come
   from a full BFS. *)
open Rs_graph
open Rs_core

(* A rooted tree grown edge by edge: [parent] maps every member to its
   parent (the root to itself), [rev] lists the emitted pairs
   newest-first. *)
type tree = { root : int; parent : (int, int) Hashtbl.t; mutable rev : int list }

let create ~root =
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent root root;
  { root; parent; rev = [] }

let mem t v = Hashtbl.mem t.parent v
let parent t v = Hashtbl.find t.parent v

(* Re-adding an existing edge is a no-op; a second parent for a member
   is an error (a tree has one path per node). *)
let add_edge t ~parent ~child =
  if not (mem t parent) then invalid_arg "Reference.add_edge: parent not in tree";
  if child = t.root then invalid_arg "Reference.add_edge: cannot re-parent the root";
  match Hashtbl.find_opt t.parent child with
  | Some p -> if p <> parent then invalid_arg "Reference.add_edge: child has another parent"
  | None ->
      Hashtbl.replace t.parent child parent;
      t.rev <- child :: parent :: t.rev

(* Adds the path root..x read off [parent_of], stopping at the first
   member met. *)
let rec graft t parent_of x =
  if not (mem t x) then begin
    let p = parent_of x in
    graft t parent_of p;
    add_edge t ~parent:p ~child:x
  end

let of_pairs ~root pairs =
  let t = create ~root in
  for i = 0 to (Array.length pairs / 2) - 1 do
    add_edge t ~parent:pairs.(2 * i) ~child:pairs.((2 * i) + 1)
  done;
  t

let pairs t = Array.of_list (List.rev t.rev)

let edges t =
  let a = pairs t in
  List.init (Array.length a / 2) (fun i -> (a.(2 * i), a.((2 * i) + 1)))

let vertices t = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) t.parent [])

let rec depth t v = if v = t.root then 0 else 1 + depth t (parent t v)

let rec first_hop t v =
  let p = parent t v in
  if p = t.root then v else first_hop t p

let edges_in g t = List.for_all (fun (p, c) -> Graph.mem_edge g p c) (edges t)

(* ---- (r, beta)-dominating trees (Dom_tree) ---- *)

(* every v with 2 <= d(u, v) <= r has a neighbor x in the tree with
   d_T(u, x) <= d(u, v) - 1 + beta; and the edges belong to the graph *)
let is_dominating g ~r ~beta ~root pairs =
  let t = of_pairs ~root pairs in
  edges_in g t
  &&
  let dist = Bfs.dist ~radius:r g root in
  Graph.fold_vertices
    (fun ok v ->
      let r' = dist.(v) in
      ok
      && (r' < 2 || r' > r
         || Array.exists
              (fun x -> mem t x && depth t x <= r' - 1 + beta)
              (Graph.neighbors g v)))
    true g

(* ---- k-connecting (2, beta)-dominating trees (Dom_tree_k) ---- *)

(* the number of root children whose subtree holds a neighbor of [v]
   within depth 1 + beta: the most pairwise internally disjoint tree
   paths from the root to neighbors of [v] *)
let branch_count g t ~beta v =
  let hops = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      if x <> t.root && mem t x && depth t x <= 1 + beta then
        Hashtbl.replace hops (first_hop t x) ())
    (Graph.neighbors g v);
  Hashtbl.length hops

let disjoint_branch_count g ~beta ~root pairs v = branch_count g (of_pairs ~root pairs) ~beta v

let common_neighbors g u v =
  Array.to_list (Graph.neighbors g v) |> List.filter (fun w -> Graph.mem_edge g u w)

(* every v at distance 2 has k disjoint branches, or every common
   neighbor of root and v is a child of the root *)
let is_k_dominating g ~k ~beta ~root pairs =
  let t = of_pairs ~root pairs in
  edges_in g t
  &&
  let dist = Bfs.dist ~radius:2 g root in
  Graph.fold_vertices
    (fun ok v ->
      ok
      && (dist.(v) <> 2
         || branch_count g t ~beta v >= k
         || List.for_all (fun w -> mem t w && parent t w = root) (common_neighbors g root v)))
    true g

(* [extract_k21 g h ~k u] greedily builds a k-connecting
   (2,1)-dominating tree for [u] from edges of [h] only: relays come
   from [h]'s depth-1/2 structure around [u]. [Some pairs] certifies
   that [h] induces such a tree for [u]; [None] means the greedy
   extraction failed — a sufficiency check, exact in the star-like
   cases, used to audit Proposition 4's premise on construction
   outputs. *)
let extract_k21 g h ~k u =
  if k < 1 then invalid_arg "Reference.extract_k21: k < 1";
  let t = create ~root:u in
  let dist = Bfs.dist ~radius:2 g u in
  let s = Hashtbl.create 64 in
  Graph.iter_vertices (fun v -> if dist.(v) = 2 then Hashtbl.replace s v ()) g;
  let h_relays_of x =
    (* common neighbors of u and x reachable as H-relays: u-y in H *)
    common_neighbors g u x |> List.filter (fun y -> Edge_set.mem h u y)
  in
  let dominated v =
    common_neighbors g u v |> List.for_all (fun w -> mem t w && parent t w = u)
    || branch_count g t ~beta:1 v >= k
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
        let fresh = h_relays_of x |> List.filter (fun y -> not (mem t y)) in
        let connectors = List.filter (fun y -> Edge_set.mem h x y) fresh in
        (match connectors with
        | y1 :: _ when not (mem t x) ->
            add_edge t ~parent:u ~child:y1;
            add_edge t ~parent:y1 ~child:x;
            List.filteri (fun i _ -> i < k - 1) (List.filter (( <> ) y1) fresh)
            |> List.iter (fun y -> add_edge t ~parent:u ~child:y)
        | _ ->
            List.filteri (fun i _ -> i < k) fresh
            |> List.iter (fun y -> add_edge t ~parent:u ~child:y));
        prune ();
        Hashtbl.remove x_set x;
        Array.iter (fun w -> Hashtbl.remove x_set w) (Graph.neighbors g x)
      end
    done
  done;
  let pairs = pairs t in
  if
    Hashtbl.length s = 0
    && Certificate.check (Certificate.create ()) g (Sharded.Mis_k { k }) ~root:u pairs
  then Some pairs
  else None

(* ---- link-state forwarding, one H_c search per hop ---- *)

(* BFS from [dst] in H_c (H plus the star of c's real incident edges).
   Returns the distance array. *)
let dist_from_in_view g h_adj ~view:c dst =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(dst) <- 0;
  queue.(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  let push v d =
    if dist.(v) < 0 then begin
      dist.(v) <- d;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let dx = dist.(x) in
    Array.iter (fun y -> push y (dx + 1)) h_adj.(x);
    if x = c then Array.iter (fun y -> push y (dx + 1)) (Graph.neighbors g c)
    else if Graph.mem_edge g c x then push c (dx + 1)
  done;
  dist

(* [h_adj] is [Edge_set.to_adjacency h] *)
let next_hop g h_adj ~src ~dst =
  if src = dst then None
  else begin
    let dist = dist_from_in_view g h_adj ~view:src dst in
    let best = ref (-1) and best_d = ref max_int in
    Array.iter
      (fun w ->
        if dist.(w) >= 0 && dist.(w) < !best_d then begin
          best := w;
          best_d := dist.(w)
        end)
      (Graph.neighbors g src);
    if !best < 0 then None else Some !best
  end

let route g h_adj ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let limit = Graph.n g in
    let rec forward c acc hops =
      if c = dst then Some (List.rev (c :: acc))
      else if hops > limit then None
      else
        match next_hop g h_adj ~src:c ~dst with
        | None -> None
        | Some w -> forward w (c :: acc) (hops + 1)
    in
    forward src [] 0
  end

(* ---- k disjoint paths through a built min-cost-flow network ---- *)

(* Vertex split: x_in = 2x, x_out = 2x+1. Source is s_out, sink t_in. *)
let build_network g s t =
  let n = Graph.n g in
  let net = Mincost_flow.create (2 * n) in
  for x = 0 to n - 1 do
    if x <> s && x <> t then
      Mincost_flow.add_arc net ~src:(2 * x) ~dst:((2 * x) + 1) ~cap:1 ~cost:0
  done;
  Graph.iter_edges
    (fun a b ->
      Mincost_flow.add_arc net ~src:((2 * a) + 1) ~dst:(2 * b) ~cap:1 ~cost:1;
      Mincost_flow.add_arc net ~src:((2 * b) + 1) ~dst:(2 * a) ~cap:1 ~cost:1)
    g;
  net

let dk_profile g ~kmax s t =
  let net = build_network g s t in
  let units = Mincost_flow.min_cost_units net ~s:((2 * s) + 1) ~t_:(2 * t) ~max_units:kmax in
  let acc = ref 0 in
  Array.of_list (List.map (fun c -> acc := !acc + c; !acc) units)

let min_sum_paths g ~k s t =
  let net = build_network g s t in
  let units = Mincost_flow.min_cost_units net ~s:((2 * s) + 1) ~t_:(2 * t) ~max_units:k in
  if List.length units < k then None
  else begin
    (* Decompose the flow into k s-t paths. Edge arcs with flow give a
       successor multimap on out-nodes; vertex arcs have cap 1 so each
       internal vertex appears on at most one path. *)
    let succ : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (src, dst, _flow) ->
        (* only edge arcs (out -> in) matter; vertex arcs are in -> out *)
        if src land 1 = 1 && dst land 1 = 0 then
          Hashtbl.replace succ src (dst :: (Option.value ~default:[] (Hashtbl.find_opt succ src))))
      (Mincost_flow.arcs_with_flow net);
    let take_succ v =
      match Hashtbl.find_opt succ v with
      | Some (x :: rest) ->
          Hashtbl.replace succ v rest;
          Some x
      | Some [] | None -> None
    in
    let walk () =
      let rec go v acc =
        (* v is a vertex id; acc is the reversed path so far *)
        if v = t then List.rev (t :: acc)
        else
          match take_succ ((2 * v) + 1) with
          | Some win -> go (win / 2) (v :: acc)
          | None -> invalid_arg "Reference.min_sum_paths: broken flow decomposition"
      in
      go s []
    in
    Some (List.init k (fun _ -> walk ()))
  end

(* ---- edge-disjoint paths: the same network without the split ---- *)

(* Each undirected edge is two opposite unit arcs of cost 1. *)
let build_edge_network g =
  let net = Mincost_flow.create (Graph.n g) in
  Graph.iter_edges
    (fun a b ->
      Mincost_flow.add_arc net ~src:a ~dst:b ~cap:1 ~cost:1;
      Mincost_flow.add_arc net ~src:b ~dst:a ~cap:1 ~cost:1)
    g;
  net

let edge_dk_profile g ~kmax s t =
  let units = Mincost_flow.min_cost_units (build_edge_network g) ~s ~t_:t ~max_units:kmax in
  let acc = ref 0 in
  Array.of_list (List.map (fun c -> acc := !acc + c; !acc) units)

(* ---- H_s as a built graph ---- *)

(* H_u = H plus all G-edges incident to u, as a standalone graph. *)
let augmented g h u =
  let extra = Array.to_list (Graph.neighbors g u) |> List.map (fun v -> (u, v)) in
  Graph.make ~n:(Graph.n g) (List.rev_append extra (Edge_set.to_list h))

(* ---- edge repair, checking each pair in a freshly built H_s ---- *)

let edge_repair g ~k ~base =
  let h = Edge_set.copy base in
  let added = ref 0 in
  let add_path p =
    let rec loop = function
      | a :: (b :: _ as rest) ->
          if not (Edge_set.mem h a b) then begin
            Edge_set.add h a b;
            incr added
          end;
          loop rest
      | [ _ ] | [] -> ()
    in
    loop p
  in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && not (Graph.mem_edge g s t) then begin
        let profile_g = Edge_disjoint.dk_profile g ~kmax:k s t in
        let kmax_g = Array.length profile_g in
        if kmax_g > 0 then begin
          let hs = augmented g h s in
          let profile_h = Edge_disjoint.dk_profile hs ~kmax:kmax_g s t in
          for k' = 1 to kmax_g do
            let violated =
              Array.length profile_h < k' || profile_h.(k' - 1) > profile_g.(k' - 1)
            in
            if violated then
              match Edge_disjoint.min_sum_paths g ~k:k' s t with
              | Some paths -> List.iter add_path paths
              | None -> ()
          done
        end
      end
    done
  done;
  (h, !added)

(* ---- the sequential stretch sweep: two fresh BFS arrays per source ---- *)

let remote_spanner_violations ?(max_violations = 10) g h ~alpha ~beta =
  let h_adj = Edge_set.to_adjacency h in
  let acc = ref [] and count = ref 0 in
  let n = Graph.n g in
  let u = ref 0 in
  while !u < n && !count < max_violations do
    let du_g = Bfs.dist g !u in
    let du_h = Bfs.augmented_dist g h_adj !u in
    for v = 0 to n - 1 do
      if v <> !u && du_g.(v) > 1 && !count < max_violations then begin
        let dh = if du_h.(v) < 0 then max_int else du_h.(v) in
        let bound = (alpha *. float_of_int du_g.(v)) +. beta in
        if dh = max_int || float_of_int dh > bound +. 1e-9 then begin
          acc := { Verify.src = !u; dst = v; d_g = du_g.(v); d_h = dh } :: !acc;
          incr count
        end
      end
    done;
    incr u
  done;
  List.rev !acc

let is_remote_spanner g h ~alpha ~beta =
  remote_spanner_violations ~max_violations:1 g h ~alpha ~beta = []
