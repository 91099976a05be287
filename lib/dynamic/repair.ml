open Rs_graph
module Dom_tree = Rs_core.Dom_tree
module Dom_tree_k = Rs_core.Dom_tree_k
module Obs = Rs_obs.Obs

type spec =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let pp_spec fmt = function
  | Gdy { r; beta } -> Format.fprintf fmt "gdy(r=%d,beta=%d)" r beta
  | Mis { r } -> Format.fprintf fmt "mis(r=%d)" r
  | Gdy_k { k } -> Format.fprintf fmt "gdy_k(k=%d)" k
  | Mis_k { k } -> Format.fprintf fmt "mis_k(k=%d)" k

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

let tree_of spec ~scratch g u =
  match spec with
  | Gdy { r; beta } -> Dom_tree.gdy ~scratch g ~r ~beta u
  | Mis { r } -> Dom_tree.mis ~scratch g ~r u
  | Gdy_k { k } -> Dom_tree_k.gdy_k ~scratch g ~k u
  | Mis_k { k } -> Dom_tree_k.mis_k ~scratch g ~k u

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
  mutable tree_edges : (int * int) list array;
      (* per root: (parent, child), shallow-first, so trees rebuild by
         replaying [Tree.add_edge] in order *)
  counts : (int * int, int) Hashtbl.t;  (* canonical pair -> #owning trees *)
  scratch : Bfs.Scratch.t;  (* constructions + dirty-set traversal *)
  verify_scratch : Bfs.Scratch.t;  (* second lane for the (alpha, beta) gate *)
  mutable spanner : Edge_set.t;
}

let graph st = st.g
let spanner st = st.spanner
let publish st = (st.g, st.spanner)

let pairs st =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) st.counts [])

let tree_edges st u = st.tree_edges.(u)

let canonical u v = if u <= v then (u, v) else (v, u)

(* Per-apply log of pairs whose membership may have flipped: pair ->
   was it in the spanner before this apply. Lets [edges_changed] count
   the symmetric difference in O(touched pairs), not O(m). *)
let note changed counts p =
  if not (Hashtbl.mem changed p) then Hashtbl.add changed p (Hashtbl.mem counts p)

let incr_pair st changed (p, c) =
  let key = canonical p c in
  note changed st.counts key;
  Hashtbl.replace st.counts key
    (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts key))

let decr_pair st changed (p, c) =
  let key = canonical p c in
  note changed st.counts key;
  match Hashtbl.find_opt st.counts key with
  | Some 1 -> Hashtbl.remove st.counts key
  | Some n -> Hashtbl.replace st.counts key (n - 1)
  | None -> assert false

(* Tree edges in a deterministic shallow-first order: parents always
   precede children, so the list replays into a [Tree.t]. *)
let ordered_edges tree =
  Tree.edges tree
  |> List.map (fun (p, c) -> (Tree.depth tree c, c, p))
  |> List.sort compare
  |> List.map (fun (_, c, p) -> (p, c))

let stored_tree ~n u edges =
  let t = Tree.create ~n ~root:u in
  List.iter (fun (p, c) -> Tree.add_edge t ~parent:p ~child:c) edges;
  t

let recompute st changed g u =
  List.iter (decr_pair st changed) st.tree_edges.(u);
  let tree = tree_of st.spec ~scratch:st.scratch g u in
  let edges = ordered_edges tree in
  st.tree_edges.(u) <- edges;
  List.iter (incr_pair st changed) edges

let materialize st g =
  let es = Edge_set.create g in
  Hashtbl.iter (fun (u, v) _ -> Edge_set.add es u v) st.counts;
  es

let init spec g =
  Obs.with_span "repair/init" (fun () ->
      let n = Graph.n g in
      let st =
        {
          spec;
          g;
          tree_edges = Array.make n [];
          counts = Hashtbl.create (4 * n);
          scratch = Bfs.Scratch.create ();
          verify_scratch = Bfs.Scratch.create ();
          spanner = Edge_set.create g;
        }
      in
      let changed = Hashtbl.create 16 in
      for u = 0 to n - 1 do
        recompute st changed g u
      done;
      st.spanner <- materialize st g;
      st)

let build spec g = spanner (init spec g)

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

let export_trees st = Array.copy st.tree_edges

let restore spec g ~trees =
  let n = Graph.n g in
  if Array.length trees <> n then
    failwith
      (Printf.sprintf "Repair.restore: %d stored trees for a %d-vertex graph"
         (Array.length trees) n);
  let st =
    {
      spec;
      g;
      tree_edges = Array.make n [];
      counts = Hashtbl.create (4 * n);
      scratch = Bfs.Scratch.create ();
      verify_scratch = Bfs.Scratch.create ();
      spanner = Edge_set.create g;
    }
  in
  let changed = Hashtbl.create 16 in
  Array.iteri
    (fun u edges ->
      List.iter
        (fun (p, c) ->
          if not (Graph.mem_edge g p c) then
            failwith
              (Printf.sprintf
                 "Repair.restore: tree %d edge (%d,%d) absent from the graph" u p c))
        edges;
      (* replay through [Tree.add_edge] so a structurally bogus list
         (orphan child, conflicting parents) is rejected here, not
         discovered as a corrupt spanner later *)
      (try ignore (stored_tree ~n u edges)
       with Invalid_argument msg ->
         failwith (Printf.sprintf "Repair.restore: tree %d malformed: %s" u msg));
      st.tree_edges.(u) <- edges;
      List.iter (incr_pair st changed) edges)
    trees;
  st.spanner <- materialize st g;
  st

(* ------------------------------------------------------------------ *)
(* apply *)

type level = Local | Widened | Full

type outcome = {
  dirty : int;
  rebuilt : int;
  escalations : int;
  level : level;
  edges_changed : int;
}

let pp_level fmt = function
  | Local -> Format.pp_print_string fmt "local"
  | Widened -> Format.pp_print_string fmt "widened"
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

(* Gate (a): every maintained edge must still exist in the new graph —
   a retained (clean) tree referencing a vanished edge means the dirty
   set missed a root. *)
let gate_edges_exist st g' =
  try
    Hashtbl.iter
      (fun (u, v) _ -> if not (Graph.mem_edge g' u v) then raise Exit)
      st.counts;
    true
  with Exit -> false

(* Gate (b): clean trees on the fringe of the dirty region must still
   be dominating for their roots in the new graph. The fringe is
   computed at the spec's {e true} locality radius, so with the
   default radius it is empty (locality guarantees the property) and
   with an under-estimated [?dirty_radius] it is exactly the at-risk
   annulus. *)
let gate_fringe_valid st g' ~fringe ~recomputed =
  let n = Graph.n g' in
  List.for_all
    (fun u ->
      recomputed.(u)
      || tree_valid st.spec g' (stored_tree ~n u st.tree_edges.(u)))
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
           is in the same order, so one filter + merge keeps the edge
           list sorted without re-deriving the delta's edge tables. *)
        let g' =
          let gone = Hashtbl.create 16 in
          List.iter (fun p -> Hashtbl.replace gone p ()) removed;
          let kept =
            Array.to_list (Graph.edges st.g)
            |> List.filter (fun p -> not (Hashtbl.mem gone p))
          in
          Graph.make ~n (List.merge compare kept added)
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
        let changed = Hashtbl.create 64 in
        let recomputed = Array.make n false in
        let rebuild us =
          Obs.with_span "rebuild" @@ fun () ->
          List.iter
            (fun u ->
              if not recomputed.(u) then begin
                recomputed.(u) <- true;
                recompute st changed g' u
              end)
            us
        in
        rebuild dirty;
        let escalations = ref 0 in
        let gates_pass () =
          Obs.with_span "gates" @@ fun () ->
          gate_edges_exist st g'
          &&
          let h_adj =
            (* adjacency straight off the refcounts: gate (a) just
               certified every pair as a [g'] edge *)
            let deg = Array.make n 0 in
            Hashtbl.iter
              (fun (u, v) _ ->
                deg.(u) <- deg.(u) + 1;
                deg.(v) <- deg.(v) + 1)
              st.counts;
            let adj = Array.init n (fun u -> Array.make deg.(u) 0) in
            Hashtbl.iter
              (fun (u, v) _ ->
                deg.(u) <- deg.(u) - 1;
                adj.(u).(deg.(u)) <- v;
                deg.(v) <- deg.(v) - 1;
                adj.(v).(deg.(v)) <- u)
              st.counts;
            adj
          in
          gate_fringe_valid st g' ~fringe ~recomputed
          && gate_alpha_beta st g' ~h_adj ~dirty
        in
        let level =
          if gates_pass () then Local
          else begin
            Obs.incr c_gate_failures;
            Obs.incr c_escalations;
            incr escalations;
            (* Widened rung: 2-hop closure of the dirty region, again
               in both graphs. *)
            let closure =
              seed_depths st ~old_g:st.g ~new_g:g' ~seeds:dirty ~radius:2
            in
            let widened = ref [] in
            for v = n - 1 downto 0 do
              if closure.(v) <= 2 then widened := v :: !widened
            done;
            rebuild !widened;
            if gates_pass () then Widened
            else begin
              Obs.incr c_gate_failures;
              Obs.incr c_escalations;
              incr escalations;
              (* Full rung: from-scratch rebuild on the new graph —
                 correct by construction, no gate to pass. *)
              rebuild (List.init n Fun.id);
              Full
            end
          end
        in
        let rebuilt_total =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 recomputed
        in
        Obs.add c_rebuilt rebuilt_total;
        Obs.add c_saved (n - rebuilt_total);
        st.g <- g';
        st.spanner <- materialize st g';
        let edges_changed =
          Hashtbl.fold
            (fun p before acc ->
              if before <> Hashtbl.mem st.counts p then acc + 1 else acc)
            changed 0
        in
        Obs.observe h_latency ((Obs.now () -. t0) *. 1000.0);
        {
          dirty = List.length dirty;
          rebuilt = rebuilt_total;
          escalations = !escalations;
          level;
          edges_changed;
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
