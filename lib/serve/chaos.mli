(** Seeded service-level chaos: the {!Rs_store.Crash} idea applied to
    the {e running} service instead of a cold directory.

    Each scenario stands up a real {!Service} — writer, readers,
    watchdog — keeps concurrent client domains querying it throughout,
    injects one failure, and then gates the surviving (or recovered)
    state with {!Rs_dynamic.Repair.check}, as the crash harness gates
    recovery; reader domains must answer every query they are given
    (stale-flagged at worst, [Bad_request] never) and none may crash.

    Scenarios:

    - [kill-writer-mid-repair] (durable): the writer dies after the
      WAL append but before repair and publication. Readers keep
      serving the last view while the service reports [degraded];
      recovery from a copy of the directory must land exactly on the
      crash sequence number, verified.
    - [torn-wal-restart] (durable): the service is killed without a
      clean close, the WAL tail is torn mid-record, and recovery must
      keep the verified prefix; re-offering the lost delta through a
      restarted service must converge to the reference topology.
    - [queue-saturation] (ephemeral): a tiny ingest queue, a slowed
      writer and a forced-escalation repair config are flooded.
      Overload must show up as explicit rejections and stale-flagged
      reads — never unbounded memory — and the drained final state
      must verify.
    - [wedged-writer-failover] (ephemeral): the writer blocks forever
      mid-batch; the watchdog must bump the epoch, fail over to a
      rebuilt writer, and the service must resume ingesting, ending in
      a verified state with exactly one failover on record. *)

open Rs_dynamic

val names : string list
(** The scenario names above, in run order. *)

val pp_report : Format.formatter -> Rs_store.Harness.report -> unit
(** [chaos scenarios: N (...)] over the report's [queries] (client
    queries answered [Ok]), [stale] (of those, stale-flagged),
    [rejections] (deltas rejected with a reason) and [failovers]
    (watchdog failovers) counts, then one line per failure. *)

val run :
  ?specs:Repair.spec list ->
  ?only:string ->
  seed:int ->
  n:int ->
  batches:int ->
  dir:string ->
  unit ->
  Rs_store.Harness.report
(** [run ~seed ~n ~batches ~dir ()] drives every scenario (or the one
    named by [?only]) through {!Rs_store.Harness.run}, which checks [n]
    and [batches >= 4] first — durable scenarios put their store in
    [dir/<scenario>], recovery copies in [dir/<scenario>-recover].
    [?specs] defaults to [[Gdy_k {k = 1}; Mis {r = 2}]], one star and
    one tree family. Deterministic in [seed] up to scheduling (the
    assertions are scheduling-independent; the client traffic counts
    are not). Raises [Invalid_argument] on misuse. *)

(** {1 Concurrent client load} *)

type clients

val spawn_clients : Service.t -> seed:int -> n:int -> count:int -> clients
(** [count] client domains querying [svc] (stats, status, routes and
    adverts over [n] vertices, seeded) until {!join_clients}. *)

val join_clients : clients -> int * int
(** Stop and join the clients; returns [(answered, stale_flagged)].
    Timeouts and overload rejections are allowed; raises [Failure] if
    any query was answered [Bad_request]. *)
