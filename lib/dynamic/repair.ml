open Rs_graph
module Certificate = Rs_core.Certificate
module Sharded = Rs_core.Sharded
module Obs = Rs_obs.Obs

type spec = Sharded.strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let pp_spec = Sharded.pp_strategy

(* Locality radii, by inspection of the constructions. A root's tree
   is a function of the edges with an endpoint within this distance of
   it: an edge whose endpoints both lie farther out changes no
   distance up to radius + 1 and no adjacency the construction reads.
   - [Dom_tree.gdy g ~r ~beta u] covers the spheres up to r with the
     balls B(x, 1) of annulus vertices x up to r - 1 + beta, and
     grafts their canonical BFS paths: it reads the adjacency of
     vertices within r - 1 + beta, and sphere membership up to r,
     which the edges leaving distance r - 1 decide.
   - [Dom_tree.mis] picks an independent set inside B(u, r): the
     edges between two vertices at distance r matter.
   - [gdy_k] is the (2, 0) case of [gdy] (a star over N(u) covering
     the 2-sphere): radius 1. [mis_k] picks independent 2-sphere
     vertices: radius 2. *)
let radius = function
  | Gdy { r; beta } -> r - 1 + beta
  | Mis { r } -> r
  | Gdy_k _ -> 1
  | Mis_k _ -> 2

(* (alpha, beta) guarantees of the union (paper, Prop. 1 / 5 / 4):
   (r, 1)-dominating trees with r = ceil(1/eps)+1 give a
   (1+eps, 1-2eps)-RS, i.e. eps = 1/(r-1) for the r at hand;
   (2, 0)-trees give (1, 0); (2, 1)-trees are the r = 2, eps = 1 case,
   i.e. (2, -1). *)
let alpha_beta = function
  | Gdy { r = 2; beta = 0 } -> Some (1.0, 0.0)
  | Gdy { r; beta = 1 } when r >= 2 ->
      let eps = 1.0 /. float_of_int (r - 1) in
      Some (1.0 +. eps, 1.0 -. (2.0 *. eps))
  | Mis { r } when r >= 2 ->
      let eps = 1.0 /. float_of_int (r - 1) in
      Some (1.0 +. eps, 1.0 -. (2.0 *. eps))
  | Gdy_k _ -> Some (1.0, 0.0)
  | Mis_k _ -> Some (2.0, -1.0)
  | Gdy _ | Mis _ -> None

(* ------------------------------------------------------------------ *)
(* metrics *)

let c_applies = Obs.counter "repair/applies"
let c_dirty = Obs.counter "repair/dirty_nodes"
let c_rebuilt = Obs.counter "repair/trees_rebuilt"
let c_escalations = Obs.counter "repair/escalations"
let c_saved = Obs.counter "repair/saved_bfs"
let c_gate_failures = Obs.counter "repair/gate_failures"
let h_latency = Obs.histogram "repair/latency"

(* ------------------------------------------------------------------ *)
(* maintained state *)

type t = {
  spec : spec;
  mutable g : Graph.t;
  trees : int array array;
      (* per root: p0 c0 p1 c1 ... flat, shallow-first — sorted by
         (child depth, child), so parents precede children *)
  mutable counts : int array;  (* edge id of [g] -> #trees holding it *)
  depth : int array;  (* ordering scratch for [shallow_first] *)
  par : int array;
  scratch : Bfs.Scratch.t;  (* dirty-set traversal *)
  near : int array;  (* dirty set: min distance to a seed, for [reached] vertices *)
  reached : Bfs.Marks.t;
  redone : Bfs.Marks.t;  (* roots whose tree the running apply recomputed *)
  cert : Certificate.t;  (* the local certificate's scratch *)
  mutable spanner : Edge_set.t;
}

let graph st = st.g
let spanner st = st.spanner
let publish st = (st.g, st.spanner)
let pairs st = Edge_set.to_list st.spanner

let create spec g =
  let n = Graph.n g in
  {
    spec;
    g;
    trees = Array.make n [||];
    counts = Array.make (Graph.m g) 0;
    depth = Array.make n 0;
    par = Array.make n 0;
    scratch = Bfs.Scratch.create ();
    near = Array.make n 0;
    reached = Bfs.Marks.create ();
    redone = Bfs.Marks.create ();
    cert = Certificate.create ();
    spanner = Edge_set.create g;
  }

(* Add [d] to the refcount of every edge of [tree], by [g]'s ids. *)
let count st g tree d =
  for i = 0 to (Array.length tree / 2) - 1 do
    let id = Graph.edge_id g tree.(2 * i) tree.((2 * i) + 1) in
    st.counts.(id) <- st.counts.(id) + d
  done

(* One root's emitted pairs in the order snapshots persist: by (child
   depth, child), each child once. Emission puts every parent before
   its children, so depths fill in one pass. *)
let shallow_first st u pairs len =
  let n = Array.length st.depth in
  st.depth.(u) <- 0;
  let keys = Array.make len 0 in
  for i = 0 to len - 1 do
    let p = pairs.(2 * i) and c = pairs.((2 * i) + 1) in
    st.depth.(c) <- st.depth.(p) + 1;
    st.par.(c) <- p;
    keys.(i) <- (st.depth.(c) * n) + c
  done;
  Array.sort Int.compare keys;
  let fresh i = i = 0 || keys.(i) <> keys.(i - 1) in
  let uniq = ref 0 in
  Array.iteri (fun i _ -> if fresh i then incr uniq) keys;
  let tree = Array.make (2 * !uniq) 0 and j = ref 0 in
  Array.iteri
    (fun i key ->
      if fresh i then begin
        let c = key mod n in
        tree.(2 * !j) <- st.par.(c);
        tree.((2 * !j) + 1) <- c;
        incr j
      end)
    keys;
  tree

(* The trees of [roots] on [g], batched through the Sharded engine and
   handed to [f root tree] in stored form. *)
let iter_built st g roots f =
  Sharded.iter_trees g st.spec roots (fun u pairs len -> f u (shallow_first st u pairs len))

let store st g u tree =
  st.trees.(u) <- tree;
  count st g tree 1

let materialize g counts =
  let es = Edge_set.create g in
  Array.iteri (fun id c -> if c > 0 then Edge_set.add_id es id) counts;
  es

let init spec g =
  Obs.with_span "repair/init" (fun () ->
      let st = create spec g in
      iter_built st g (Sharded.locality_order g) (store st g);
      st.spanner <- materialize g st.counts;
      st)

let build spec g = Sharded.build ~domains:1 g spec

let check ~what g spanners =
  List.iter
    (fun (spec, sp) ->
      if Edge_set.to_list sp <> Edge_set.to_list (build spec g) then
        failwith
          (Format.asprintf "%s: %a spanner diverges from a from-scratch build" what pp_spec
             spec);
      match alpha_beta spec with
      | Some (alpha, beta) when not (Rs_core.Verify.is_remote_spanner g sp ~alpha ~beta) ->
          failwith
            (Format.asprintf "%s: %a spanner violates its (%g, %g) guarantee" what pp_spec
               spec alpha beta)
      | _ -> ())
    spanners

let export_trees st =
  Array.map
    (fun tree -> List.init (Array.length tree / 2) (fun i -> (tree.(2 * i), tree.((2 * i) + 1))))
    st.trees

let restore spec g ~trees =
  let n = Graph.n g in
  if Array.length trees <> n then
    failwith
      (Printf.sprintf "Repair.restore: %d stored trees for a %d-vertex graph"
         (Array.length trees) n);
  let st = create spec g in
  Array.iteri
    (fun u edges ->
      let tree = Array.make (2 * List.length edges) 0 in
      List.iteri
        (fun i (p, c) ->
          tree.(2 * i) <- p;
          tree.((2 * i) + 1) <- c)
        edges;
      (* replay into stamped arrays, so a structurally bogus list
         (foreign edge, orphan child, conflicting parents) is rejected
         here, not discovered as a corrupt spanner later *)
      (match Certificate.replay st.cert g ~root:u tree with
      | Ok () -> ()
      | Error reason -> failwith (Printf.sprintf "Repair.restore: tree %d %s" u reason));
      store st g u tree)
    trees;
  st.spanner <- materialize g st.counts;
  st

(* ------------------------------------------------------------------ *)
(* apply *)

type level = Local | Full

type outcome = {
  dirty : int;
  rebuilt : int;
  escalations : int;
  level : level;
  edges_changed : int;
}

let pp_level fmt = function
  | Local -> Format.pp_print_string fmt "local"
  | Full -> Format.pp_print_string fmt "full"

let pp_outcome fmt o =
  Format.fprintf fmt "dirty=%d rebuilt=%d escalations=%d level=%a edges_changed=%d"
    o.dirty o.rebuilt o.escalations pp_level o.level o.edges_changed

(* The roots within [radius] of a seed, measured in BOTH graphs (a
   removed edge is only traversable in the old graph, an added one only
   in the new, and a root is affected if the change sits inside its
   relevant neighborhood in either), with their least seed distance
   left in [st.near]. Stamped, so O(balls), not O(n). Returned in
   discovery order, unsorted: the order only decides how the engine
   batches the roots, never their trees. *)
let near_roots st ~old_g ~new_g ~seeds ~radius =
  Bfs.Marks.clear st.reached;
  let found = ref [] in
  let scan g =
    List.iter
      (fun w ->
        Bfs.Scratch.run ~radius st.scratch g w;
        Bfs.Scratch.iter_visited st.scratch (fun v ->
            let d = Bfs.Scratch.dist st.scratch v in
            if not (Bfs.Marks.mem st.reached v) then begin
              Bfs.Marks.set st.reached v;
              st.near.(v) <- d;
              found := v :: !found
            end
            else if d < st.near.(v) then st.near.(v) <- d))
      seeds
  in
  scan old_g;
  scan new_g;
  List.rev !found

(* Old edge id -> new edge id, -1 for a removed edge. The removed
   edges' old ids and the added edges' new ids are looked up once; the
   surviving edges then fill the remaining new ids in order — one int
   pass, no pair comparisons. *)
let remap (c : Delta.change) =
  let ids g es = Array.of_list (List.map (fun (u, v) -> Graph.edge_id g u v) es) in
  let removed = ids c.before c.removed and added = ids c.after c.added in
  let map = Array.make (Graph.m c.before) (-1) in
  let r = ref 0 and a = ref 0 and j = ref 0 in
  for i = 0 to Array.length map - 1 do
    if !r < Array.length removed && removed.(!r) = i then incr r
    else begin
      while !a < Array.length added && added.(!a) = !j do
        incr a;
        incr j
      done;
      map.(i) <- !j;
      incr j
    end
  done;
  map

(* Carry the refcounts over to the new ids. Gate (a) falls out of the
   merge: a still-referenced edge with no new id means a retained
   (clean) tree uses a vanished edge, i.e. the dirty set missed a root. *)
let carry_counts st ~map ~m =
  let counts = Array.make m 0 and lost = ref false in
  Array.iteri
    (fun i c -> if map.(i) >= 0 then counts.(map.(i)) <- c else if c > 0 then lost := true)
    st.counts;
  st.counts <- counts;
  not !lost

let apply_change ?dirty_radius st (c : Delta.change) =
  if c.before != st.g && not (Graph.equal c.before st.g) then
    invalid_arg "Repair.apply_change: the change was resolved against another graph";
  Obs.with_span "repair/apply" (fun () ->
      let t0 = Obs.now () in
      Obs.incr c_applies;
      let n = Graph.n st.g in
      if Delta.quiescent c then begin
        (* Quiescent: nothing moved, nothing recomputed, state
           physically untouched. *)
        Obs.add c_saved n;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        { dirty = 0; rebuilt = 0; escalations = 0; level = Local; edges_changed = 0 }
      end
      else begin
        let g' = c.after and old_g = st.g and old_spanner = st.spanner in
        let seeds = Delta.touched ~added:c.added ~removed:c.removed in
        let r_spec = radius st.spec in
        let r_used = Option.value dirty_radius ~default:r_spec in
        let r_check = max r_used r_spec in
        (* dirty roots are recomputed and replace their trees; fringe
           roots — between the radius used and the spec's true one,
           none unless [?dirty_radius] under-estimates — are
           recomputed and compared *)
        let dirty, fringe =
          Obs.with_span "dirty_set" (fun () ->
              near_roots st ~old_g ~new_g:g' ~seeds ~radius:r_check
              |> List.partition (fun v -> st.near.(v) <= r_used))
        in
        Obs.add c_dirty (List.length dirty);
        Bfs.Marks.clear st.redone;
        let rebuilt = ref 0 and fringe_same = ref true in
        let redo u tree =
          Bfs.Marks.set st.redone u;
          incr rebuilt;
          if st.near.(u) <= r_used then store st g' u tree
          else if tree <> st.trees.(u) then begin
            fringe_same := false;
            st.trees.(u) <- tree
          end
        in
        (* Splice: release the dirty trees under the old ids, carry the
           counts to the new ids, count the recomputed trees in. *)
        let map, edges_kept =
          Obs.with_span "rebuild" @@ fun () ->
          List.iter (fun u -> count st old_g st.trees.(u) (-1)) dirty;
          let map = remap c in
          let kept = carry_counts st ~map ~m:(Graph.m g') in
          iter_built st g' (Array.of_list (dirty @ fringe)) redo;
          (map, kept)
        in
        (* Gates: (a) no retained tree lost an edge; (b) every tree
           this apply built passes the local certificate, and every
           fringe tree equals its recomputation. By Props. 1/4/5 the
           union of the certified trees is a remote-spanner, and with
           the fringe unchanged it is the from-scratch build. *)
        let level =
          if
            Obs.with_span "gates" @@ fun () ->
            edges_kept && !fringe_same
            && List.for_all
                 (fun u -> Certificate.check st.cert g' st.spec ~root:u st.trees.(u))
                 (dirty @ fringe)
          then Local
          else begin
            Obs.incr c_gate_failures;
            Obs.incr c_escalations;
            (* Full rebuild on the new graph — correct by construction,
               no gate to pass. Counts restart from the trees already
               recomputed. *)
            Obs.with_span "rebuild" (fun () ->
                st.counts <- Array.make (Graph.m g') 0;
                Array.iteri
                  (fun u tree -> if Bfs.Marks.mem st.redone u then count st g' tree 1)
                  st.trees;
                let rest =
                  List.filter
                    (fun u -> not (Bfs.Marks.mem st.redone u))
                    (Array.to_list (Sharded.locality_order g'))
                in
                iter_built st g' (Array.of_list rest) (fun u tree ->
                    incr rebuilt;
                    store st g' u tree));
            Full
          end
        in
        st.spanner <- materialize g' st.counts;
        Obs.add c_rebuilt !rebuilt;
        Obs.add c_saved (n - !rebuilt);
        st.g <- g';
        (* symmetric difference of the two spanners, matched by the id map *)
        let both = ref 0 in
        Array.iteri
          (fun i j -> if j >= 0 && Edge_set.mem_id old_spanner i && st.counts.(j) > 0 then incr both)
          map;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        {
          dirty = List.length dirty;
          rebuilt = !rebuilt;
          escalations = (if level = Full then 1 else 0);
          level;
          edges_changed =
            Edge_set.cardinal old_spanner + Edge_set.cardinal st.spanner - (2 * !both);
        }
      end)

let apply ?dirty_radius st delta = apply_change ?dirty_radius st (Delta.change st.g delta)

let incremental_target spec =
  let state = ref None in
  fun g ->
    let st =
      match !state with
      | None ->
          let st = init spec g in
          state := Some st;
          st
      | Some st ->
          if st.g != g then ignore (apply st (Delta.diff st.g g));
          st
    in
    pairs st
