(** Seeded network chaos: {!Rs_serve.Chaos} extended across the wire.

    Each scenario stands up a real leader (durable service + {!Repl}
    TCP front) and a real replica (shipped snapshot, WAL stream,
    its own store), keeps client reads flowing against the replica,
    injects one network failure, and gates the aftermath: the
    replica's state must pass {!Rs_dynamic.Repair.check} and — where
    both ends survive — recover to a snapshot {e byte identical} to
    the leader's at the same sequence number.

    Scenarios:

    - [partition-mid-stream]: the leader↔replica link is severed (new
      connections refused, live ones dropped) while the leader keeps
      ingesting. The replica must keep serving what it has, then
      reconnect when the partition heals and resume from its own
      sequence number — no gap, no double-apply.
    - [torn-snapshot-ship]: a snapshot ship is cut mid-chunk, the
      partial corrupted on disk, and the ship retried. Resume must
      continue at the partial's offset, the CRC check must reject the
      corrupted file, and a clean retry must install and bootstrap a
      replica that catches up.
    - [slow-replica-overflow]: the per-follower send buffer is shrunk
      and the stream throttled until it overflows. The leader must
      disconnect that follower with an explicit reason (never buffer
      without bound); the unthrottled replica must reconnect and
      converge.
    - [replica-restart-resume]: the replica is crash-killed (no final
      snapshot), the leader keeps ingesting, and the replica restarts
      from its own directory — recovery replays its local WAL, the
      stream resumes from the recovered sequence number, and the
      final stores are byte-identical.
    - [leader-kill-promote]: the leader dies; the caught-up replica is
      promoted (epoch bumped and persisted). The promoted state must
      verify against a from-scratch build, and the deposed leader —
      restarted with its stale epoch — must be refused when the
      promoted store tries to follow it. *)

open Rs_dynamic

val names : string list

val pp_report : Format.formatter -> Rs_store.Harness.report -> unit
(** [net chaos scenarios: N (...)] over the report's [queries]
    (replica-side client queries answered [Ok]), [stale], [reconnects]
    (successful resume handshakes) and [disconnects] (reasoned
    disconnects: overflow, fence) counts, then one line per failure. *)

val run :
  ?specs:Repair.spec list ->
  ?only:string ->
  seed:int ->
  n:int ->
  batches:int ->
  dir:string ->
  unit ->
  Rs_store.Harness.report
(** Same contract as {!Rs_serve.Chaos.run}: every scenario (or the one
    named by [?only]) under [dir], deterministic in [seed] up to
    scheduling. [?specs] defaults to [[Gdy_k {k = 1}]]. Raises
    [Invalid_argument] on misuse. *)
