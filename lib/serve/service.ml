open Rs_graph
open Rs_dynamic
open Rs_obs
module Store = Rs_store.Store
module Link_state = Rs_routing.Link_state

let c_queries = Obs.counter "service/queries"
let c_timeouts = Obs.counter "service/query_timeouts"
let c_stale = Obs.counter "service/stale_reads"
let c_rej_queries = Obs.counter "service/rejected_queries"
let c_accepted = Obs.counter "service/deltas_accepted"
let c_rej_deltas = Obs.counter "service/rejected_deltas"
let c_batches = Obs.counter "service/batches"
let c_trips = Obs.counter "service/breaker_trips"
let c_probes = Obs.counter "service/breaker_probes"
let c_rebuilds = Obs.counter "service/rebuilds"
let c_failovers = Obs.counter "service/failovers"
let c_crashes = Obs.counter "service/writer_crashes"
let c_wedges = Obs.counter "service/wedges"
let h_query_ms = Obs.histogram "service/query_latency_ms"
let h_repair_ms = Obs.histogram "service/repair_ms"
let h_batch = Obs.histogram "service/batch_size"
let g_view_seq = Obs.gauge "service/view_seq"
let g_ingested = Obs.gauge "service/ingested_seq"
let g_queue = Obs.gauge "service/queue_depth"

type backend_spec =
  | Ephemeral of { specs : Repair.spec list; g : Graph.t }
  | Durable of Store.t

type config = {
  readers : int;
  ingest_capacity : int;
  request_capacity : int;
  batch_max : int;
  deadline_s : float;
  repair_budget_s : float;
  breaker_trips : int;
  open_backlog : int;
  watchdog_s : float;
  health_every_s : float;
  health_file : string option;
  dirty_radius : int option;
  before_apply : (int -> Delta.t -> unit) option;
}

let default_config =
  { readers = 2; ingest_capacity = 256; request_capacity = 256; batch_max = 32;
    deadline_s = 1.0; repair_budget_s = 0.5; breaker_trips = 3; open_backlog = 8;
    watchdog_s = 5.0; health_every_s = 0.5; health_file = None; dirty_radius = None;
    before_apply = None }

(* {1 Backends} — the writer's private mutable state. The writer
   captures its backend at spawn; [t.backend] is re-pointed only by
   failover, so a superseded writer keeps mutating its own dead value
   and can never race the replacement. *)

type eph = {
  mutable e_seq : int;
  mutable e_g : Graph.t;
  mutable e_states : (Repair.spec * Repair.t) list;
  mutable e_stale : bool;
}

type backend = B_eph of eph | B_dur of Store.t

let b_seq = function B_eph e -> e.e_seq | B_dur s -> Store.seq s
let b_graph = function B_eph e -> e.e_g | B_dur s -> Store.graph s

let b_states = function
  | B_dur s -> Store.states s
  | B_eph e ->
      if e.e_stale then
        invalid_arg "Service: spanner states are stale (rebuild first)";
      e.e_states

(* Mirrors [Store.append]'s log-then-apply contract for the in-memory
   backend: quiescent deltas are free, [~repair:false] advances the
   graph only and marks the states stale. *)
let b_append ?dirty_radius ~repair b delta =
  match b with
  | B_dur s -> Store.append ~repair s delta
  | B_eph e -> (
      if repair && e.e_stale then
        invalid_arg "Service: spanner states are stale (rebuild first)";
      let change = Delta.change e.e_g delta in
      if Delta.quiescent change then []
      else begin
        e.e_seq <- e.e_seq + 1;
        e.e_g <- change.Delta.after;
        if repair then
          List.map (fun (_, st) -> Repair.apply_change ?dirty_radius st change) e.e_states
        else begin
          e.e_stale <- true;
          []
        end
      end)

let b_rebuild = function
  | B_dur s -> Store.rebuild s
  | B_eph e ->
      e.e_states <- List.map (fun (spec, _) -> (spec, Repair.init spec e.e_g)) e.e_states;
      e.e_stale <- false

(* {1 Views} *)

type strategy_view = {
  sv_spec : Repair.spec;
  sv_spanner : Edge_set.t;
  sv_adj : int array array;
  sv_graph : Graph.t;  (* the spanner as a standalone graph *)
  sv_ls : Link_state.t;
}

type view = {
  v_seq : int;
  v_graph : Graph.t;
  v_strategies : strategy_view array;
}

let make_view b =
  let strategies =
    b_states b
    |> List.map (fun (spec, st) ->
           let g, sp = Repair.publish st in
           let ls = Link_state.make g sp in
           { sv_spec = spec; sv_spanner = sp; sv_adj = Link_state.adjacency ls;
             sv_graph = Edge_set.to_graph sp; sv_ls = ls })
    |> Array.of_list
  in
  { v_seq = b_seq b; v_graph = b_graph b; v_strategies = strategies }

(* {1 Queries} *)

type query =
  | Route of { src : int; dst : int }
  | Paths of { src : int; dst : int; k : int }
  | Advert of int
  | Stats
  | Status

type answer =
  | Route_a of { path : int list option; shortest : int }
  | Paths_a of int list list option
  | Advert_a of int list
  | Stats_a of { n : int; m : int; spanner : int; advert : int; seq : int }
  | Status_a of status

and error = Timeout | Overloaded of string | Bad_request of string

and response = {
  answer : (answer, error) result;
  seq : int;
  stale : bool;
  latency_ms : float;
}

and state = Serving | Rebuilding | Degraded of string

and status = {
  s_state : state;
  s_seq : int;
  s_ingested : int;
  s_queue : int;
  s_breaker : string;
  s_epoch : int;
  s_accepted : int;
  s_rejected : int;
  s_timeouts : int;
  s_stale_reads : int;
  s_failovers : int;
}

type pending = {
  p_query : query;
  p_strategy : int;
  p_deadline : float;  (* absolute, on Obs.now's clock *)
  p_start : float;
  p_m : Mutex.t;
  p_c : Condition.t;
  mutable p_resp : response option;
}

type t = {
  cfg : config;
  specs : Repair.spec list;
  mutable backend : backend;  (* status/failover only; writers use their captured copy *)
  view : view Atomic.t;
  ingested : int Atomic.t;
  epoch : int Atomic.t;
  heartbeat : float Atomic.t;
  pub_m : Mutex.t;  (* serializes view/ingested publication against epoch bumps *)
  ingest : Delta.t Bqueue.t;
  inflight : int Atomic.t;  (* deltas accepted but not yet applied+published *)
  requests : pending Bqueue.t;
  shutdown : bool Atomic.t;
  killed : bool Atomic.t;
  stopped : bool Atomic.t;
  suspended : string option Atomic.t;  (* Some reason = ingest refused *)
  rebuilding : bool Atomic.t;
  breaker_str : string Atomic.t;
  a_accepted : int Atomic.t;
  a_rejected : int Atomic.t;
  a_timeouts : int Atomic.t;
  a_stale : int Atomic.t;
  a_failovers : int Atomic.t;
  mutable writer : unit Domain.t option;
  mutable abandoned : unit Domain.t list;  (* superseded writers; never joined *)
  mutable readers : unit Domain.t array;
  mutable watchdog : Thread.t option;
}

let view_seq t = (Atomic.get t.view).v_seq
let ingested_seq t = Atomic.get t.ingested

(* [inflight] counts deltas from before their queue push until after
   the batch that carried them is applied and published, so [idle]
   cannot slip through the pop-to-publish window (the queue itself
   reads empty there). The correct drain predicate. *)
let idle t =
  Atomic.get t.inflight = 0
  && (not (Atomic.get t.rebuilding))
  && Atomic.get t.ingested = view_seq t

let peek t =
  let v = Atomic.get t.view in
  ( v.v_graph,
    Array.to_list v.v_strategies |> List.map (fun sv -> (sv.sv_spec, sv.sv_spanner)) )

let status t =
  let s_state =
    match Atomic.get t.suspended with
    | Some reason -> Degraded reason
    | None -> if Atomic.get t.rebuilding then Rebuilding else Serving
  in
  { s_state; s_seq = view_seq t; s_ingested = Atomic.get t.ingested;
    s_queue = Bqueue.length t.ingest; s_breaker = Atomic.get t.breaker_str;
    s_epoch = Atomic.get t.epoch; s_accepted = Atomic.get t.a_accepted;
    s_rejected = Atomic.get t.a_rejected; s_timeouts = Atomic.get t.a_timeouts;
    s_stale_reads = Atomic.get t.a_stale; s_failovers = Atomic.get t.a_failovers }

let state_name = function
  | Serving -> "serving"
  | Rebuilding -> "rebuilding"
  | Degraded _ -> "degraded"

let health t =
  let s = status t in
  let base =
    Printf.sprintf
      "state=%s seq=%d ingested=%d queue=%d breaker=%s epoch=%d accepted=%d \
       rejected=%d timeouts=%d stale_reads=%d failovers=%d"
      (state_name s.s_state) s.s_seq s.s_ingested s.s_queue s.s_breaker s.s_epoch
      s.s_accepted s.s_rejected s.s_timeouts s.s_stale_reads s.s_failovers
  in
  match s.s_state with
  | Degraded reason -> Printf.sprintf "%s reason=%S" base reason
  | Serving | Rebuilding -> base

let write_health t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (health t);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* {1 Ingest} *)

let offer t delta =
  let reject reason =
    Obs.incr c_rej_deltas;
    Atomic.incr t.a_rejected;
    Error reason
  in
  if Atomic.get t.shutdown then reject "service is shutting down"
  else
    match Atomic.get t.suspended with
    | Some reason -> reject ("ingest suspended: " ^ reason)
    | None -> (
        (* the vertex universe is fixed, so range/self-loop validity
           against the published view holds for the writer's graph too *)
        match Delta.effect (Atomic.get t.view).v_graph delta with
        | exception Invalid_argument m -> reject ("invalid delta: " ^ m)
        | _ -> (
            (* counted before the push so [idle] can never observe the
               delta as neither outstanding nor applied *)
            Atomic.incr t.inflight;
            match Bqueue.push t.ingest delta with
            | Ok () ->
                Obs.incr c_accepted;
                Atomic.incr t.a_accepted;
                Ok ()
            | Error r ->
                Atomic.decr t.inflight;
                reject (Bqueue.reject_to_string r)))

(* {1 Reader evaluation} *)

let paths_to_lists ps = List.map (fun (p : Path.t) -> (p :> int list)) ps

let eval t v p =
  let n = Graph.n v.v_graph in
  let check_node what u =
    if u < 0 || u >= n then
      failwith (Printf.sprintf "%s %d out of range [0, %d)" what u n)
  in
  let strategy () =
    if p.p_strategy < 0 || p.p_strategy >= Array.length v.v_strategies then
      failwith
        (Printf.sprintf "strategy %d out of range (%d configured)" p.p_strategy
           (Array.length v.v_strategies));
    v.v_strategies.(p.p_strategy)
  in
  match p.p_query with
  | Status -> Status_a (status t)
  | Stats ->
      let sv = strategy () in
      Stats_a
        { n; m = Graph.m v.v_graph; spanner = Edge_set.cardinal sv.sv_spanner;
          advert = Link_state.advertisement_size sv.sv_ls; seq = v.v_seq }
  | Advert u ->
      check_node "node" u;
      let sv = strategy () in
      Advert_a (Array.to_list sv.sv_adj.(u))
  | Route { src; dst } ->
      check_node "src" src;
      check_node "dst" dst;
      let sv = strategy () in
      let path =
        Option.map
          (fun (p : Path.t) -> (p :> int list))
          (Link_state.route sv.sv_ls ~src ~dst)
      in
      Route_a { path; shortest = Bfs.dist_pair v.v_graph src dst }
  | Paths { src; dst; k } ->
      check_node "src" src;
      check_node "dst" dst;
      if k < 1 then failwith "k must be >= 1";
      if src = dst then failwith "paths: src = dst";
      let sv = strategy () in
      Paths_a (Option.map paths_to_lists (Disjoint_paths.min_sum_paths sv.sv_graph ~k src dst))

let respond p resp =
  Mutex.lock p.p_m;
  p.p_resp <- Some resp;
  Condition.signal p.p_c;
  Mutex.unlock p.p_m

let await p =
  Mutex.lock p.p_m;
  let rec wait () =
    match p.p_resp with
    | Some r -> r
    | None ->
        Condition.wait p.p_c p.p_m;
        wait ()
  in
  let r = wait () in
  Mutex.unlock p.p_m;
  r

let serve_one t p =
  Obs.incr c_queries;
  let timeout now =
    Obs.incr c_timeouts;
    Atomic.incr t.a_timeouts;
    { answer = Error Timeout; seq = -1; stale = false;
      latency_ms = (now -. p.p_start) *. 1000. }
  in
  let now = Obs.now () in
  let resp =
    if now > p.p_deadline then timeout now
    else begin
      let v = Atomic.get t.view in
      let answer =
        match eval t v p with
        | a -> Ok a
        | exception (Failure m | Invalid_argument m) -> Error (Bad_request m)
        (* a reader domain must survive anything a query throws at it *)
        | exception e -> Error (Bad_request (Printexc.to_string e))
      in
      let fin = Obs.now () in
      if fin > p.p_deadline then timeout fin
      else begin
        let stale = Atomic.get t.ingested > v.v_seq in
        if stale then begin
          Obs.incr c_stale;
          Atomic.incr t.a_stale
        end;
        { answer; seq = v.v_seq; stale; latency_ms = (fin -. p.p_start) *. 1000. }
      end
    end
  in
  Obs.observe h_query_ms resp.latency_ms;
  respond p resp

let reader_loop t () =
  let rec loop () =
    match Bqueue.pop_batch t.requests ~max:8 ~timeout_s:0.05 with
    | [] -> if not (Bqueue.is_closed t.requests) then loop ()
    | batch ->
        List.iter (serve_one t) batch;
        loop ()
  in
  loop ()

let query ?(strategy = 0) ?deadline_s t q =
  let deadline_s = Option.value deadline_s ~default:t.cfg.deadline_s in
  if deadline_s <= 0. then invalid_arg "Service.query: deadline must be positive";
  let start = Obs.now () in
  let p =
    { p_query = q; p_strategy = strategy; p_deadline = start +. deadline_s;
      p_start = start; p_m = Mutex.create (); p_c = Condition.create ();
      p_resp = None }
  in
  match Bqueue.push t.requests p with
  | Ok () -> await p
  | Error r ->
      Obs.incr c_rej_queries;
      { answer = Error (Overloaded (Bqueue.reject_to_string r)); seq = -1;
        stale = false; latency_ms = (Obs.now () -. start) *. 1000. }

(* {1 Writer} *)

type breaker = Closed_b | Open_b | Half_open_b

let breaker_name = function
  | Closed_b -> "closed"
  | Open_b -> "open"
  | Half_open_b -> "half-open"

(* View and ingested-seq publication is epoch-fenced under [pub_m]: the
   watchdog bumps the epoch under the same lock before spawning a
   replacement writer, so a wedged writer that wakes later finds its
   epoch dead and its publication is a no-op. *)
let publish t my_epoch b =
  Mutex.lock t.pub_m;
  if Atomic.get t.epoch = my_epoch then begin
    let v = make_view b in
    Atomic.set t.view v;
    Obs.set_gauge g_view_seq (float_of_int v.v_seq)
  end;
  Mutex.unlock t.pub_m

let ack t my_epoch b =
  Mutex.lock t.pub_m;
  if Atomic.get t.epoch = my_epoch then begin
    Atomic.set t.ingested (b_seq b);
    Obs.set_gauge g_ingested (float_of_int (b_seq b))
  end;
  Mutex.unlock t.pub_m

let do_rebuild t my_epoch b =
  Atomic.set t.rebuilding true;
  Obs.incr c_rebuilds;
  Obs.with_span "service/rebuild" (fun () -> b_rebuild b);
  publish t my_epoch b;
  Atomic.set t.rebuilding false

let rec writer_loop t my_epoch b breaker bad deferred =
  if Atomic.get t.killed || Atomic.get t.epoch <> my_epoch then ()
  else begin
    Atomic.set t.heartbeat (Obs.now ());
    Atomic.set t.breaker_str (breaker_name breaker);
    Obs.set_gauge g_queue (float_of_int (Bqueue.length t.ingest));
    match Bqueue.pop_batch t.ingest ~max:t.cfg.batch_max ~timeout_s:0.05 with
    | [] ->
        if deferred > 0 then begin
          (* idle (or draining): fold the open-breaker backlog now *)
          do_rebuild t my_epoch b;
          if not (Atomic.get t.shutdown) then
            writer_loop t my_epoch b Half_open_b 0 0
        end
        else if not (Atomic.get t.shutdown) then
          writer_loop t my_epoch b breaker bad deferred
    | batch -> (
        let batch_len = List.length batch in
        let batch_done () =
          ignore (Atomic.fetch_and_add t.inflight (-batch_len))
        in
        Obs.incr c_batches;
        Obs.observe h_batch (float_of_int (List.length batch));
        let delta = List.concat batch in
        (match t.cfg.before_apply with
        | Some hook -> hook (b_seq b + 1) delta
        | None -> ());
        match breaker with
        | Open_b ->
            (* log-and-defer: durability and the graph advance, the
               spanners lag until one batched rebuild *)
            ignore (b_append ~repair:false b delta);
            ack t my_epoch b;
            batch_done ();
            let deferred = deferred + 1 in
            if deferred >= t.cfg.open_backlog then begin
              do_rebuild t my_epoch b;
              writer_loop t my_epoch b Half_open_b 0 0
            end
            else writer_loop t my_epoch b Open_b bad deferred
        | Closed_b | Half_open_b -> (
            let t0 = Obs.now () in
            let outcomes = b_append ?dirty_radius:t.cfg.dirty_radius ~repair:true b delta in
            let dt = Obs.now () -. t0 in
            Obs.observe h_repair_ms (dt *. 1000.);
            ack t my_epoch b;
            publish t my_epoch b;
            batch_done ();
            let escalated_full =
              List.exists (fun (o : Repair.outcome) -> o.Repair.level = Repair.Full) outcomes
            in
            let bad_one = dt > t.cfg.repair_budget_s || escalated_full in
            match (breaker, bad_one) with
            | Half_open_b, false ->
                Obs.incr c_probes;
                writer_loop t my_epoch b Closed_b 0 0
            | Half_open_b, true ->
                Obs.incr c_trips;
                writer_loop t my_epoch b Open_b 0 0
            | Closed_b, true ->
                let bad = bad + 1 in
                if bad >= t.cfg.breaker_trips then begin
                  Obs.incr c_trips;
                  writer_loop t my_epoch b Open_b 0 0
                end
                else writer_loop t my_epoch b Closed_b bad 0
            | Closed_b, false -> writer_loop t my_epoch b Closed_b 0 0
            | Open_b, _ -> assert false))
  end

let writer_domain t my_epoch b () =
  match writer_loop t my_epoch b Closed_b 0 0 with
  | () -> ()
  | exception e ->
      Obs.incr c_crashes;
      (* a superseded writer's death must not re-suspend the epoch
         that replaced it *)
      Mutex.lock t.pub_m;
      if Atomic.get t.epoch = my_epoch then
        Atomic.set t.suspended
          (Some ("writer crashed: " ^ Printexc.to_string e));
      Mutex.unlock t.pub_m

(* {1 Watchdog} *)

let handle_wedge t =
  match t.backend with
  | B_dur _ ->
      (* failing over here would put two writers on one WAL; degrade
         instead — readers keep the last good view, restart recovers *)
      if Atomic.get t.suspended = None then begin
        Obs.incr c_wedges;
        Atomic.set t.suspended
          (Some "writer wedged; ingest suspended (restart and recover)")
      end
  | B_eph _ ->
      Obs.incr c_wedges;
      Mutex.lock t.pub_m;
      Atomic.incr t.epoch;
      let epoch = Atomic.get t.epoch in
      Mutex.unlock t.pub_m;
      Obs.incr c_failovers;
      Atomic.incr t.a_failovers;
      (* authoritative state = the last published view; deltas the
         wedged writer absorbed but never published are lost, exactly
         as a crash would lose them *)
      let v = Atomic.get t.view in
      let e =
        { e_seq = v.v_seq; e_g = v.v_graph; e_stale = false;
          e_states = List.map (fun spec -> (spec, Repair.init spec v.v_graph)) t.specs }
      in
      let b = B_eph e in
      t.backend <- b;
      Atomic.set t.ingested v.v_seq;
      (* the wedged writer's popped batch dies with it (crash
         semantics); deltas still queued will be processed *)
      Atomic.set t.inflight (Bqueue.length t.ingest);
      Atomic.set t.suspended None;
      Atomic.set t.heartbeat (Obs.now ());
      (match t.writer with
      | Some d -> t.abandoned <- d :: t.abandoned
      | None -> ());
      t.writer <- Some (Domain.spawn (writer_domain t epoch b))

let watchdog t () =
  let last_health = ref 0. in
  let rec loop () =
    if not (Atomic.get t.shutdown) then begin
      Unix.sleepf 0.05;
      let now = Obs.now () in
      if
        t.cfg.watchdog_s > 0.
        && now -. Atomic.get t.heartbeat > t.cfg.watchdog_s
        && not (Atomic.get t.shutdown)
      then handle_wedge t;
      (match t.cfg.health_file with
      | Some path when now -. !last_health >= t.cfg.health_every_s ->
          last_health := now;
          (try write_health t path with Sys_error _ -> ())
      | _ -> ());
      loop ()
    end
  in
  loop ()

(* {1 Lifecycle} *)

let start (cfg : config) spec =
  if cfg.readers < 1 then invalid_arg "Service.start: readers must be >= 1";
  if cfg.ingest_capacity < 1 || cfg.request_capacity < 1 then
    invalid_arg "Service.start: queue capacities must be >= 1";
  if cfg.batch_max < 1 then invalid_arg "Service.start: batch_max must be >= 1";
  if cfg.deadline_s <= 0. then invalid_arg "Service.start: deadline must be positive";
  if cfg.repair_budget_s <= 0. then
    invalid_arg "Service.start: repair budget must be positive";
  if cfg.breaker_trips < 1 || cfg.open_backlog < 1 then
    invalid_arg "Service.start: breaker thresholds must be >= 1";
  if cfg.health_every_s <= 0. then
    invalid_arg "Service.start: health period must be positive";
  let backend =
    match spec with
    | Ephemeral { specs; g } ->
        if specs = [] then invalid_arg "Service.start: at least one spanner spec";
        B_eph
          { e_seq = 0; e_g = g; e_stale = false;
            e_states = List.map (fun s -> (s, Repair.init s g)) specs }
    | Durable store ->
        if Store.states_stale store then Store.rebuild store;
        B_dur store
  in
  let specs = List.map fst (b_states backend) in
  let v = make_view backend in
  let t =
    { cfg; specs; backend; view = Atomic.make v; ingested = Atomic.make v.v_seq;
      inflight = Atomic.make 0;
      epoch = Atomic.make 1; heartbeat = Atomic.make (Obs.now ());
      pub_m = Mutex.create (); ingest = Bqueue.create ~capacity:cfg.ingest_capacity;
      requests = Bqueue.create ~capacity:cfg.request_capacity;
      shutdown = Atomic.make false; killed = Atomic.make false;
      stopped = Atomic.make false; suspended = Atomic.make None;
      rebuilding = Atomic.make false; breaker_str = Atomic.make "closed";
      a_accepted = Atomic.make 0; a_rejected = Atomic.make 0;
      a_timeouts = Atomic.make 0; a_stale = Atomic.make 0;
      a_failovers = Atomic.make 0; writer = None; abandoned = []; readers = [||];
      watchdog = None }
  in
  Obs.set_gauge g_view_seq (float_of_int v.v_seq);
  Obs.set_gauge g_ingested (float_of_int v.v_seq);
  (match cfg.health_file with
  | Some path -> ( try write_health t path with Sys_error _ -> ())
  | None -> ());
  t.writer <- Some (Domain.spawn (writer_domain t 1 backend));
  t.readers <- Array.init cfg.readers (fun _ -> Domain.spawn (reader_loop t));
  if cfg.watchdog_s > 0. || cfg.health_file <> None then
    t.watchdog <- Some (Thread.create (watchdog t) ());
  t

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.shutdown true;
    Bqueue.close t.ingest;
    (match t.writer with Some d -> Domain.join d | None -> ());
    Bqueue.close t.requests;
    Array.iter Domain.join t.readers;
    Option.iter Thread.join t.watchdog;
    if not (Atomic.get t.killed) then (
      match t.backend with
      | B_dur store ->
          if Store.states_stale store then Store.rebuild store;
          ignore (Store.write_snapshot store);
          Store.close store
      | B_eph _ -> ());
    match t.cfg.health_file with
    | Some path -> ( try write_health t path with Sys_error _ -> ())
    | None -> ()
  end;
  status t

let kill t =
  Atomic.set t.killed true;
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.shutdown true;
    Bqueue.close t.ingest;
    Bqueue.close t.requests;
    (* readers drain and answer what's queued; the writer is abandoned
       wherever it is — no drain, no final snapshot, no store close *)
    Array.iter Domain.join t.readers;
    Option.iter Thread.join t.watchdog
  end
