open Rs_graph
module Dom_tree = Rs_core.Dom_tree
module Dom_tree_k = Rs_core.Dom_tree_k
module Sharded = Rs_core.Sharded
module Obs = Rs_obs.Obs

type spec = Sharded.strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let pp_spec = Sharded.pp_strategy

(* Locality radii, by inspection of the constructions:
   - [Dom_tree.gdy g ~r ~beta u] explores B(u, r + beta) but only ever
     {e reads adjacency} of vertices it may pick or cover — spheres up
     to r and annuli up to r - 1 + beta — so the tree is a function of
     the edges with an endpoint within max r (r - 1 + beta) of u.
   - [Dom_tree.mis] selects inside B(u, r) and grafts BFS paths there.
   - [gdy_k]/[mis_k] read the 2-ball only (stars over direct relays). *)
let radius = function
  | Gdy { r; beta } -> max r (r - 1 + beta)
  | Mis { r } -> r
  | Gdy_k _ | Mis_k _ -> 2

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

let tree_valid spec g t =
  match spec with
  | Gdy { r; beta } -> Dom_tree.is_dominating g ~r ~beta t
  | Mis { r } -> Dom_tree.is_dominating g ~r ~beta:1 t
  | Gdy_k { k } -> Dom_tree_k.is_k_dominating g ~k ~beta:0 t
  | Mis_k { k } -> Dom_tree_k.is_k_dominating g ~k ~beta:1 t

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
  verify_scratch : Bfs.Scratch.t;  (* second lane for the (alpha, beta) gate *)
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
    verify_scratch = Bfs.Scratch.create ();
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
  let tree = ref [] in
  Array.iteri
    (fun i key ->
      if i = 0 || key <> keys.(i - 1) then
        let c = key mod n in
        tree := c :: st.par.(c) :: !tree)
    keys;
  Array.of_list (List.rev !tree)

(* The trees of [roots] on [g], batched through the Sharded engine,
   stored per root and counted by [g]'s edge ids. *)
let build_trees st g roots =
  Sharded.iter_trees g st.spec roots (fun u pairs len ->
      let tree = shallow_first st u pairs len in
      st.trees.(u) <- tree;
      count st g tree 1)

let materialize g counts =
  let es = Edge_set.create g in
  Array.iteri (fun id c -> if c > 0 then Edge_set.add_id es id) counts;
  es

let stored_tree ~n u tree =
  let t = Tree.create ~n ~root:u in
  for i = 0 to (Array.length tree / 2) - 1 do
    Tree.add_edge t ~parent:tree.(2 * i) ~child:tree.((2 * i) + 1)
  done;
  t

let init spec g =
  Obs.with_span "repair/init" (fun () ->
      let st = create spec g in
      build_trees st g (Sharded.locality_order g);
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
      List.iter
        (fun (p, c) ->
          if not (Graph.mem_edge g p c) then
            failwith
              (Printf.sprintf
                 "Repair.restore: tree %d edge (%d,%d) absent from the graph" u p c))
        edges;
      let tree = Array.of_list (List.concat_map (fun (p, c) -> [ p; c ]) edges) in
      (* replay through [Tree.add_edge] so a structurally bogus list
         (orphan child, conflicting parents) is rejected here, not
         discovered as a corrupt spanner later *)
      (try ignore (stored_tree ~n u tree)
       with Invalid_argument msg ->
         failwith (Printf.sprintf "Repair.restore: tree %d malformed: %s" u msg));
      st.trees.(u) <- tree;
      count st g tree 1)
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

(* Min distance from any seed, bounded by [radius], measured in BOTH
   graphs: a removed edge is only traversable in the old graph, an
   added one only in the new, and a root is affected if the change
   sits inside its relevant neighborhood in either. *)
let seed_depths st ~old_g ~new_g ~seeds ~radius =
  let n = Graph.n new_g in
  let depth = Array.make n max_int in
  let scan g =
    List.iter
      (fun w ->
        Bfs.Scratch.run ~radius st.scratch g w;
        Bfs.Scratch.iter_visited st.scratch (fun v ->
            let d = Bfs.Scratch.dist st.scratch v in
            if d < depth.(v) then depth.(v) <- d))
      seeds
  in
  scan old_g;
  scan new_g;
  depth

(* Old edge id -> new edge id, -1 for a removed edge: one merge over
   the two canonical, lexicographically sorted edge arrays. *)
let remap g g' =
  let e' = Graph.edges g' in
  let m' = Array.length e' in
  let j = ref 0 in
  Array.map
    (fun (u, v) ->
      let before (u', v') = u' < u || (u' = u && v' < v) in
      while !j < m' && before e'.(!j) do
        incr j
      done;
      if !j < m' && fst e'.(!j) = u && snd e'.(!j) = v then !j else -1)
    (Graph.edges g)

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

(* Gate (b): clean trees on the fringe of the dirty region must still
   be dominating for their roots in the new graph. The fringe is
   computed at the spec's {e true} locality radius, so with the
   default radius it is empty (locality guarantees the property) and
   with an under-estimated [?dirty_radius] it is exactly the at-risk
   annulus. *)
let gate_fringe_valid st g' ~fringe ~recomputed =
  let n = Graph.n g' in
  List.for_all
    (fun u -> recomputed.(u) || tree_valid st.spec g' (stored_tree ~n u st.trees.(u)))
    fringe

(* Gate (d): direct (alpha, beta) distance check from every dirty
   source, mirroring [Verify.remote_spanner_violations] (sources
   restricted to the dirty region). *)
let gate_alpha_beta st g' ~h_adj ~dirty =
  match alpha_beta st.spec with
  | None -> true
  | Some (alpha, beta) ->
      let n = Graph.n g' in
      List.for_all
        (fun u ->
          Bfs.Scratch.run st.scratch g' u;
          Bfs.Scratch.run_augmented st.verify_scratch g' h_adj u;
          let ok = ref true in
          for v = 0 to n - 1 do
            if !ok && v <> u then begin
              let dg = Bfs.Scratch.dist st.scratch v in
              if dg > 1 then begin
                let bound = (alpha *. float_of_int dg) +. beta in
                let reached = Bfs.Scratch.reached st.verify_scratch v in
                if
                  (not reached)
                  || float_of_int (Bfs.Scratch.dist st.verify_scratch v)
                     > bound +. 1e-9
                then ok := false
              end
            end
          done;
          !ok)
        dirty

let apply ?dirty_radius st delta =
  Obs.with_span "repair/apply" (fun () ->
      let t0 = Obs.now () in
      Obs.incr c_applies;
      let n = Graph.n st.g in
      let added, removed = Delta.effect st.g delta in
      if added = [] && removed = [] then begin
        (* Quiescent: nothing moved, nothing recomputed, state
           physically untouched. *)
        Obs.add c_saved n;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        { dirty = 0; rebuilt = 0; escalations = 0; level = Local; edges_changed = 0 }
      end
      else begin
        (* Build the new graph straight from the net effect: [added]
           and [removed] are sorted canonical lists, and [Graph.edges]
           is in the same order, so one pass dropping [removed] plus a
           merge keeps the edge list sorted without re-deriving the
           delta's edge tables. *)
        let g' =
          let rm = ref removed and kept = ref [] in
          Array.iter
            (fun p ->
              match !rm with
              | q :: rest when q = p -> rm := rest
              | _ -> kept := p :: !kept)
            (Graph.edges st.g);
          Graph.make ~n (List.merge compare (List.rev !kept) added)
        in
        let seeds = Delta.touched ~added ~removed in
        let r_spec = radius st.spec in
        let r_used = Option.value dirty_radius ~default:r_spec in
        let r_check = max r_used r_spec in
        let depth =
          Obs.with_span "dirty_set" (fun () ->
              seed_depths st ~old_g:st.g ~new_g:g' ~seeds ~radius:r_check)
        in
        let dirty = ref [] and fringe = ref [] in
        for v = n - 1 downto 0 do
          if depth.(v) <= r_used then dirty := v :: !dirty
          else if depth.(v) <= r_check then fringe := v :: !fringe
        done;
        let dirty = !dirty and fringe = !fringe in
        Obs.add c_dirty (List.length dirty);
        let old_g = st.g and old_spanner = st.spanner in
        let recomputed = Array.make n false in
        let rebuild us =
          let us = List.filter (fun u -> not recomputed.(u)) us in
          List.iter (fun u -> recomputed.(u) <- true) us;
          build_trees st g' (Array.of_list us)
        in
        (* Splice: release the dirty trees under the old ids, carry the
           counts to the new ids, count the recomputed trees in. *)
        let map, edges_kept =
          Obs.with_span "rebuild" @@ fun () ->
          List.iter (fun u -> count st old_g st.trees.(u) (-1)) dirty;
          let map = remap old_g g' in
          let kept = carry_counts st ~map ~m:(Graph.m g') in
          rebuild dirty;
          (map, kept)
        in
        st.spanner <- materialize g' st.counts;
        let level =
          if
            Obs.with_span "gates" @@ fun () ->
            edges_kept
            && gate_fringe_valid st g' ~fringe ~recomputed
            && gate_alpha_beta st g' ~h_adj:(Edge_set.to_adjacency st.spanner) ~dirty
          then Local
          else begin
            Obs.incr c_gate_failures;
            Obs.incr c_escalations;
            (* Full rebuild on the new graph —
               correct by construction, no gate to pass. Counts restart
               from the trees already recomputed. *)
            Obs.with_span "rebuild" (fun () ->
                st.counts <- Array.make (Graph.m g') 0;
                Array.iteri (fun u tree -> if recomputed.(u) then count st g' tree 1) st.trees;
                rebuild (List.init n Fun.id));
            st.spanner <- materialize g' st.counts;
            Full
          end
        in
        let rebuilt_total =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 recomputed
        in
        Obs.add c_rebuilt rebuilt_total;
        Obs.add c_saved (n - rebuilt_total);
        st.g <- g';
        (* symmetric difference of the two spanners, matched by the id map *)
        let both = ref 0 in
        Array.iteri
          (fun i j -> if j >= 0 && Edge_set.mem_id old_spanner i && st.counts.(j) > 0 then incr both)
          map;
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        {
          dirty = List.length dirty;
          rebuilt = rebuilt_total;
          escalations = (if level = Full then 1 else 0);
          level;
          edges_changed =
            Edge_set.cardinal old_spanner + Edge_set.cardinal st.spanner - (2 * !both);
        }
      end)

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
