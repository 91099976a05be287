(** The resident spanner service: one writer domain folding topology
    deltas through {!Rs_dynamic.Repair}, N reader domains answering
    queries from immutable published views, and the failure machinery
    that keeps the two honest under load — bounded ingest with
    rejection, per-request deadlines, a repair circuit breaker, a
    writer watchdog, and a crash-safe durable lifecycle.

    {b Publication.} The writer owns all mutable spanner state. After
    each applied batch it builds a {!view} — graph, and per strategy
    the spanner plus derived read structures — and installs it with a
    single [Atomic.set]. {!Rs_dynamic.Repair.apply} replaces graph and
    spanner wholesale (see {!Rs_dynamic.Repair.publish}), so a view is
    frozen at its sequence number forever: readers never take a lock,
    never observe a torn state, and never block on repair. A reader
    answering from a view older than the last {e ingested} delta marks
    the response [stale] — the service degrades to explicitly-flagged
    stale reads under pressure, never to wrong or blocked ones.

    {b Overload.} Both queues are bounded ({!Bqueue}): a full ingest
    queue rejects deltas with a reason, a full request queue rejects
    queries with [Overloaded] — memory is [O(capacity)], and the
    client always learns why. Requests carry absolute deadlines;
    expired ones are answered [Timeout] without computing.

    {b Circuit breaker.} Repeated over-budget repairs or escalations
    to a full rebuild trip the breaker: the writer stops incremental
    repair and only logs deltas ([Store.append ~repair:false] — the
    graph and WAL advance, spanners lag), then folds the backlog with
    one batched rebuild and re-probes incremental mode. Readers serve
    the last good view, stale-flagged, throughout.

    {b Waiting and watchdog.} Idle readers and the writer block on
    their queues ({!Bqueue}); all else that waits on the service
    blocks in {!await}. The one timed loop is a clock systhread (50 ms
    ticks, no domain of its own): it writes the health file, ends
    timed {!await}s, and is the watchdog, timing the writer's current
    batch — a writer blocked on an empty queue is idle, not wedged. A
    wedged writer on an ephemeral backend is failed over: the epoch is
    bumped (the old writer's publications are dead on arrival — epoch
    is checked under the publication lock) and a replacement writer
    rebuilds from the last published view. On a durable backend
    failover would mean two writers racing one WAL, so the service
    instead degrades: ingest suspends, readers keep serving, health
    reports the reason — restart-and-recover is the repair path.

    All of it is observable: [service/*] counters and latency
    histograms in {!Rs_obs.Obs}, a one-line {!health} string for probe
    files, and a structured {!status} for the [status] query. *)

open Rs_graph
open Rs_dynamic

(** Where the authoritative state lives. [Ephemeral] keeps it in
    memory (watchdog failover allowed); [Durable] is WAL-backed — the
    writer goes through {!Rs_store.Store.append}, startup is
    {!Rs_store.Store.recover}, and {!stop} publishes a final
    snapshot. *)
type backend_spec =
  | Ephemeral of { specs : Repair.spec list; g : Graph.t }
  | Durable of Rs_store.Store.t

type config = {
  readers : int;  (** reader domains (>= 1) *)
  ingest_capacity : int;  (** bounded delta queue *)
  request_capacity : int;  (** bounded query queue *)
  batch_max : int;  (** deltas folded into one repair *)
  deadline_s : float;  (** default per-request deadline *)
  repair_budget_s : float;  (** per-batch repair wall budget *)
  breaker_trips : int;
      (** consecutive over-budget or [Full]-escalated repairs that
          open the breaker *)
  open_backlog : int;  (** deferred batches folded per rebuild when open *)
  watchdog_s : float;
      (** how long one batch may run before the writer is declared
          wedged; [0.] disables the watchdog *)
  health_every_s : float;  (** health-file refresh period *)
  health_file : string option;
  dirty_radius : int option;  (** forwarded to {!Repair.apply}; testing *)
  before_apply : (int -> Delta.t -> unit) option;
      (** chaos hook, called in the writer just before batch [seq] is
          applied — raising here simulates a writer crash mid-repair *)
}

val default_config : config
(** 2 readers, 256/256 queues, batches of 32, 1 s deadlines, 0.5 s
    repair budget, 3 trips, backlog 8, 5 s watchdog, no health file,
    no hooks. *)

type t

val start : ?health_suffix:(t -> string) -> config -> backend_spec -> t
(** Spawn the writer and reader domains and the clock thread.
    [health_suffix] (default [""]) is appended to every {!health} line.
    The first view is published before [start] returns — reads are
    servable immediately. *)

(** {1 Ingest} *)

val offer : t -> Delta.t -> (unit, string) result
(** Validate against the current view's vertex universe and enqueue
    for the writer. [Error reason] on a full queue, suspended ingest
    (wedged durable writer), shutdown, or an invalid delta — the
    caller always learns why, and memory never grows unboundedly. *)

(** {1 Queries} *)

type query =
  | Route of { src : int; dst : int }
      (** greedy forwarding over the strategy's advertised sub-graph
          (the paper's H_u semantics, {!Rs_routing.Link_state}) *)
  | Paths of { src : int; dst : int; k : int }
      (** [k] internally vertex-disjoint paths within the spanner *)
  | Advert of int  (** the node's advertised spanner links *)
  | Stats
  | Status

type answer =
  | Route_a of { path : int list option; shortest : int }
      (** delivered route, and the true [d_G] for stretch ([-1] when
          disconnected) *)
  | Paths_a of int list list option
  | Advert_a of int list
  | Stats_a of { n : int; m : int; spanner : int; advert : int; seq : int }
  | Status_a of status

and error =
  | Timeout  (** deadline passed before or during evaluation *)
  | Overloaded of string  (** rejected at the request queue *)
  | Bad_request of string

and response = {
  answer : (answer, error) result;
  seq : int;  (** sequence number of the view that answered; -1 if none *)
  stale : bool;
      (** the view lagged ingested deltas (breaker open, repair in
          flight, or wedged writer) — correct for [seq], not newest *)
  latency_ms : float;
}

and state = Serving | Rebuilding | Degraded of string

and status = {
  s_state : state;
  s_seq : int;  (** published view *)
  s_ingested : int;  (** last delta accepted into the log *)
  s_queue : int;  (** ingest queue depth *)
  s_breaker : string;  (** ["closed"] / ["open"] / ["half-open"] *)
  s_epoch : int;  (** bumped by every failover *)
  s_accepted : int;
  s_rejected : int;
  s_timeouts : int;
  s_stale_reads : int;
  s_failovers : int;
}

val query : ?strategy:int -> ?deadline_s:float -> t -> query -> response
(** Enqueue and await. [?strategy] indexes the backend's spec list
    (default 0); [?deadline_s] overrides the config default. Called
    from any domain except the service's own readers. *)

val status : t -> status
(** Lock-free snapshot, servable even with every queue full — this is
    what health probes rely on. *)

val health : t -> string
(** One [key=value] line, e.g.
    ["state=serving seq=12 ingested=12 queue=0 breaker=closed ..."].
    Written atomically (temp + rename) to [config.health_file] every
    [health_every_s] by the clock. *)

val view_seq : t -> int
val ingested_seq : t -> int

(** {1 Waiting} *)

val await : ?timeout_s:float -> t -> (unit -> bool) -> bool
(** Block until [cond ()] holds ([true]); [false] once [timeout_s]
    passes (checked on each clock tick) or the service is killed.
    [cond] runs under the publication lock after every ack, publish,
    batch end, rebuild end, suspension, stop, kill and {!wake}. *)

val wake : t -> unit
(** Re-run every {!await}'s condition, for one that reads state the
    service does not own (a connection's stop flag). *)

val wait_idle : ?timeout_s:float -> ?cancel:(unit -> bool) -> t -> bool
(** {!await} idleness or [cancel ()]: no accepted delta awaits the
    writer (queue empty, nothing between pop and publish, no rebuild)
    and the published view has caught the log — the drain. *)

val wait_ingested : ?timeout_s:float -> t -> int -> bool
(** {!await} [ingested_seq t >= seq]. *)

val peek : t -> Graph.t * (Repair.spec * Edge_set.t) list
(** The published view's graph and per-strategy spanners — what a
    verification gate ({!Rs_core.Verify.is_remote_spanner}, comparison
    against {!Repair.build}) needs. Lock-free; the values are frozen
    (see {!Repair.publish}). *)

(** {1 Lifecycle} *)

val stop : t -> status
(** Graceful shutdown (the SIGTERM path): stop accepting, drain the
    ingest queue through the writer (folding any open-breaker backlog
    with a final rebuild), answer or time out queued requests, join
    every domain, and — durable backend — publish a final snapshot and
    close the store. Idempotent. *)

val kill : t -> unit
(** Crash simulation for the chaos harness: stop all domains {e now} —
    no drain, no final snapshot, no store close (the directory is left
    exactly as a SIGKILL would leave it, modulo the kernel's view of
    flushed bytes). Not for production use. *)
