module Graph = Rs_graph.Graph
module Obs = Rs_obs.Obs
module Trace = Rs_obs.Trace
module Json = Rs_obs.Json

let c_originations = Obs.counter "periodic/originations"
let c_recomputes = Obs.counter "periodic/recomputes"
let c_expirations = Obs.counter "periodic/expirations"
let c_crashes = Obs.counter "fault/crashes"
let c_recoveries = Obs.counter "fault/recoveries"
let h_convergence_lag = Obs.histogram "periodic/convergence_lag"
let h_round_messages = Obs.histogram "periodic/round_messages"

type event = { at : int; add : (int * int) list; remove : (int * int) list }

type result = {
  converged_at : int option;
  matched : bool array;
  messages : int;
  lost : int;
  quiet_at : int;
  incremental_mismatches : int;
}

type entry = { seq : int; nbrs : int array; heard_at : int }

type msg = { origin : int; mseq : int; mnbrs : int array; ttl : int }

let canonical (a, b) = if a < b then (a, b) else (b, a)

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let apply_events g events t =
  List.fold_left
    (fun g ev ->
      if ev.at <> t then g
      else begin
        let removals = List.map canonical ev.remove in
        let kept =
          Graph.fold_edges
            (fun acc a b -> if List.mem (canonical (a, b)) removals then acc else (a, b) :: acc)
            [] g
        in
        Graph.make ~n:(Graph.n g) (List.rev_append ev.add kept)
      end)
    g events

let check_events_sorted events =
  let rec scan i = function
    | a :: (b :: _ as rest) ->
        if a.at > b.at then
          invalid_arg
            (Printf.sprintf
               "Periodic.simulate: events not sorted by at: events %d and %d \
                have at = %d > %d"
               i (i + 1) a.at b.at);
        scan (i + 1) rest
    | _ -> ()
  in
  scan 0 events

(* The canonical edges of a flat [(parent, child)] pair tree, vertex
   ids mapped through [id]. *)
let tree_edges id pairs =
  List.init (Array.length pairs / 2) (fun i ->
      canonical (id pairs.(2 * i), id pairs.((2 * i) + 1)))

(* Build u's view graph from its cache (OR rule over advertised lists,
   own adjacency always fresh), renumbered; returns tree edges in
   global ids. *)
let recompute_tree ~tree_of g cache u =
  let lists = Hashtbl.create 16 in
  Hashtbl.iter (fun origin e -> Hashtbl.replace lists origin e.nbrs) cache;
  Hashtbl.replace lists u (Graph.neighbors g u);
  let verts = Hashtbl.create 32 in
  Hashtbl.iter
    (fun origin nbrs ->
      Hashtbl.replace verts origin ();
      Array.iter (fun w -> Hashtbl.replace verts w ()) nbrs)
    lists;
  let vs = Array.of_list (List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) verts [])) in
  let fwd = Hashtbl.create (Array.length vs) in
  Array.iteri (fun i v -> Hashtbl.replace fwd v i) vs;
  let edges = ref [] in
  Hashtbl.iter
    (fun origin nbrs ->
      let o = Hashtbl.find fwd origin in
      Array.iter (fun w -> edges := (o, Hashtbl.find fwd w) :: !edges) nbrs)
    lists;
  let local = Graph.make ~n:(Array.length vs) !edges in
  tree_edges (Array.get vs) (tree_of local (Hashtbl.find fwd u))

let simulate ?trace ?faults ?expiry ?incremental ~initial ~events ~period ~radius
    ~horizon ~tree_of () =
  if period < 1 || radius < 1 then invalid_arg "Periodic.simulate: period, radius >= 1";
  let expiry = match expiry with Some e -> e | None -> 2 * period in
  if expiry < 1 then invalid_arg "Periodic.simulate: expiry >= 1";
  check_events_sorted events;
  Obs.with_span "periodic/simulate" @@ fun () ->
  let tracing = trace <> None in
  let emit fields = Option.iter (fun sink -> Trace.emit sink fields) trace in
  let n = Graph.n initial in
  let caches = Array.init n (fun _ -> (Hashtbl.create 16 : (int, entry) Hashtbl.t)) in
  let trees = Array.make n [] in
  let dirty = Array.make n true in
  let seqs = Array.make n 0 in
  let inboxes = Array.make n ([] : msg list) in
  let outboxes = Array.make n ([] : msg list) in
  let messages = ref 0 in
  let matched = Array.make horizon false in
  let g = ref initial in
  (* fault machinery; inert when [faults] is absent *)
  let fstate = Option.map Fault.start faults in
  let up = Array.make n true in
  let lost = ref 0 in
  let incremental_mismatches = ref 0 in
  (* delayed advertisement copies: delivery round -> (dst, msg), reversed *)
  let pending : (int, (int * msg) list) Hashtbl.t = Hashtbl.create 16 in
  let schedule at entry =
    Hashtbl.replace pending at
      (entry :: Option.value ~default:[] (Hashtbl.find_opt pending at))
  in
  let trace_drop t u v reason =
    incr lost;
    if tracing then
      emit
        [ ("ev", Json.String "drop"); ("round", Json.Int t); ("from", Json.Int u);
          ("to", Json.Int v); ("reason", Json.String reason) ]
  in
  let sync_liveness t =
    Option.iter
      (fun fs ->
        for u = 0 to n - 1 do
          let alive = Fault.node_up fs ~round:t u in
          if alive <> up.(u) then begin
            up.(u) <- alive;
            if alive then begin
              Obs.incr c_recoveries;
              (* recovered nodes rebuild from whatever survives expiry *)
              dirty.(u) <- true;
              if tracing then
                emit [ ("ev", Json.String "recover"); ("round", Json.Int t);
                       ("node", Json.Int u) ]
            end
            else begin
              Obs.incr c_crashes;
              outboxes.(u) <- [];
              if tracing then
                emit [ ("ev", Json.String "crash"); ("round", Json.Int t);
                       ("node", Json.Int u) ]
            end
          end
        done)
      fstate
  in
  let target_cache = Hashtbl.create 4 in
  let target g =
    (* memoize per distinct graph (few event epochs) *)
    let key = Graph.edges g in
    match Hashtbl.find_opt target_cache key with
    | Some s -> s
    | None ->
        let s =
          Graph.fold_vertices
            (fun acc u ->
              List.fold_left
                (fun acc e -> Pair_set.add e acc)
                acc
                (tree_edges Fun.id (tree_of g u)))
            Pair_set.empty g
        in
        Hashtbl.replace target_cache key s;
        s
  in
  for t = 0 to horizon - 1 do
    if tracing then emit [ ("ev", Json.String "round_start"); ("round", Json.Int t) ];
    sync_liveness t;
    let messages_before = !messages in
    (* 1. topology events *)
    g := apply_events !g events t;
    let gt = !g in
    (* neighbor-change detection is immediate for the node's own view *)
    for u = 0 to n - 1 do
      dirty.(u) <- true
    done;
    (* 2. deliver messages sent last round (edges evaluated now) *)
    (match fstate with
    | None ->
        Array.iteri
          (fun u msgs ->
            List.iter
              (fun m ->
                Array.iter
                  (fun v ->
                    incr messages;
                    inboxes.(v) <- m :: inboxes.(v))
                  (Graph.neighbors gt u))
              msgs)
          outboxes
    | Some fs ->
        (* delayed copies first, re-checking the receiver now *)
        (match Hashtbl.find_opt pending t with
        | None -> ()
        | Some entries ->
            Hashtbl.remove pending t;
            List.iter
              (fun (v, m) ->
                if up.(v) then begin
                  incr messages;
                  inboxes.(v) <- m :: inboxes.(v)
                end
                else trace_drop t m.origin v "crash")
              (List.rev entries));
        Array.iteri
          (fun u msgs ->
            List.iter
              (fun m ->
                Array.iter
                  (fun v ->
                    if not up.(u) then trace_drop t u v "crash"
                    else if not up.(v) then trace_drop t u v "crash"
                    else if not (Fault.link_up fs ~round:t u v) then
                      trace_drop t u v "link"
                    else
                      match Fault.transmit fs ~round:t with
                      | Fault.Dropped -> trace_drop t u v "loss"
                      | Fault.Deliver delays ->
                          if List.length delays > 1 then begin
                            if tracing then
                              emit
                                [ ("ev", Json.String "dup"); ("round", Json.Int t);
                                  ("from", Json.Int u); ("to", Json.Int v) ]
                          end;
                          List.iter
                            (fun d ->
                              if d = 0 then begin
                                incr messages;
                                inboxes.(v) <- m :: inboxes.(v)
                              end
                              else schedule (t + d) (v, m))
                            delays)
                  (Graph.neighbors gt u))
              msgs)
          outboxes);
    Array.fill outboxes 0 n [];
    (* 3. process inboxes: cache updates + forwarding; advertisement
       dedup is by (origin, seq), so duplicated and reordered copies
       are absorbed here: a copy that is not strictly fresher than the
       cached entry is neither stored nor forwarded *)
    for u = 0 to n - 1 do
      if up.(u) then
        List.iter
          (fun m ->
            if m.origin <> u then begin
              let fresher =
                match Hashtbl.find_opt caches.(u) m.origin with
                | Some e -> m.mseq > e.seq
                | None -> true
              in
              if fresher then begin
                Hashtbl.replace caches.(u) m.origin
                  { seq = m.mseq; nbrs = m.mnbrs; heard_at = t };
                dirty.(u) <- true;
                if m.ttl > 1 then outboxes.(u) <- { m with ttl = m.ttl - 1 } :: outboxes.(u)
              end
            end)
          inboxes.(u);
      inboxes.(u) <- []
    done;
    (* 4. periodic origination (crashed nodes stay silent — their
       cached advertisements at peers age out below) *)
    for u = 0 to n - 1 do
      if up.(u) && t mod period = u mod period then begin
        seqs.(u) <- seqs.(u) + 1;
        Obs.incr c_originations;
        if tracing then
          emit
            [
              ("ev", Json.String "originate");
              ("round", Json.Int t);
              ("node", Json.Int u);
              ("seq", Json.Int seqs.(u));
            ];
        outboxes.(u) <-
          { origin = u; mseq = seqs.(u); mnbrs = Graph.neighbors gt u; ttl = radius }
          :: outboxes.(u)
      end
    done;
    (* 5. soft-state expiry *)
    for u = 0 to n - 1 do
      if up.(u) then begin
        let stale =
          Hashtbl.fold
            (fun origin e acc -> if t - e.heard_at > expiry then origin :: acc else acc)
            caches.(u) []
        in
        if stale <> [] then begin
          Obs.add c_expirations (List.length stale);
          if tracing then
            List.iter
              (fun origin ->
                emit
                  [
                    ("ev", Json.String "expire");
                    ("round", Json.Int t);
                    ("node", Json.Int u);
                    ("origin", Json.Int origin);
                  ])
              stale;
          List.iter (Hashtbl.remove caches.(u)) stale;
          dirty.(u) <- true
        end
      end
    done;
    (* 6. recompute dirty trees (crashed nodes keep their stale tree
       but it is excluded from the union below) *)
    for u = 0 to n - 1 do
      if up.(u) && dirty.(u) then begin
        Obs.incr c_recomputes;
        trees.(u) <- recompute_tree ~tree_of gt caches.(u) u;
        dirty.(u) <- false
      end
    done;
    (* 7. observe *)
    let union = ref Pair_set.empty in
    for u = 0 to n - 1 do
      if up.(u) then
        union := List.fold_left (fun acc e -> Pair_set.add e acc) !union trees.(u)
    done;
    matched.(t) <- Pair_set.equal !union (target gt);
    (* the incrementally maintained centralized spanner must agree
       with the memoized from-scratch target on every epoch *)
    (match incremental with
    | None -> ()
    | Some maintain ->
        let inc = List.fold_left (fun acc e -> Pair_set.add (canonical e) acc)
            Pair_set.empty (maintain gt)
        in
        if not (Pair_set.equal inc (target gt)) then begin
          incr incremental_mismatches;
          if tracing then
            emit [ ("ev", Json.String "incremental_mismatch"); ("round", Json.Int t) ]
        end);
    Obs.observe h_round_messages (float_of_int (!messages - messages_before));
    if tracing then
      emit
        [
          ("ev", Json.String "round_end");
          ("round", Json.Int t);
          ("messages", Json.Int (!messages - messages_before));
          ("matched", Json.Bool matched.(t));
        ]
  done;
  let last_event = List.fold_left (fun acc ev -> max acc ev.at) 0 events in
  let quiet_at =
    match faults with
    | None -> last_event
    | Some p -> max last_event (Fault.quiet_at p)
  in
  let converged_at =
    let rec scan best t =
      if t < quiet_at then best
      else if matched.(t) then scan (Some t) (t - 1)
      else best
    in
    if horizon = 0 || quiet_at = max_int then None else scan None (horizon - 1)
  in
  Option.iter
    (fun t -> Obs.observe h_convergence_lag (float_of_int (t - quiet_at)))
    converged_at;
  {
    converged_at;
    matched;
    messages = !messages;
    lost = !lost;
    quiet_at;
    incremental_mismatches = !incremental_mismatches;
  }

let stabilization_lag res =
  match res.converged_at with
  | Some t when res.quiet_at <= t -> Some (t - res.quiet_at)
  | _ -> None

let self_stabilizes res ~bound =
  match stabilization_lag res with Some lag -> lag <= bound | None -> false
