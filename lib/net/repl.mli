(** Leader/replica replication of durable spanner state.

    A {e leader} is a durable {!Rs_serve.Service} made reachable over
    TCP: it answers the serve line protocol ({!Proto}) to query
    clients, ships its newest checksummed snapshot to joining
    replicas, and streams WAL records to followers as its writer
    appends them. A {e replica} is a full store-plus-service of its
    own — it installs the shipped snapshot, recovers from it, then
    applies the streamed records through {!Rs_dynamic.Repair} exactly
    as the leader did, serving stale-bounded reads with an advertised
    [lag] (leader seq minus applied seq).

    Every connection opens with one tag byte from the client:
    - ['Q'] — query session: ['L' line] requests, ['L' reply] answers;
    - ['G' u64 offset, u64 snap_seq] — snapshot fetch (resumable:
      [offset] into the file previously identified by [snap_seq]; [0,
      0] asks for the newest from the start). The leader answers
      ['M' u32 epoch, u64 snap_seq, u64 total_len, u32 crc, name],
      then ['C' bytes] chunks, then ['D']; the replica verifies the
      whole-file CRC before installing under the real name;
    - ['J' u32 known_epoch, u64 have_seq] — WAL subscription. Accepted
      with ['K' u32 epoch, u64 leader_seq], then ['R' u32 epoch,
      record] frames carrying {!Rs_store.Wal} records verbatim
      (validated by the same checksum-then-parse path recovery uses)
      and ['H' u32 epoch, u64 leader_seq] heartbeats. Refusals and
      disconnect reasons travel as ['E' reason].

    Robustness contract:
    - every read/write runs against a {!Frame} deadline, except an
      idle query session's wait for its next request, which ends on
      a frame, a close or the socket shutdown of {!stop_leader};
    - the leader buffers nothing per follower: each is fed straight
      from the WAL on disk, so a slow replica only lags, and one that
      stops reading is dropped when a send misses the frame deadline;
    - a replica buffers nothing of its own: its follower offers each
      record to the service itself, so a full ingest queue stalls the
      socket read and TCP carries the backpressure to the leader;
    - a disconnected replica reconnects with capped exponential
      backoff plus seeded jitter and resumes from its own durable
      sequence number — the thread that offered every record also
      reconnects, and reads [have_seq] once the service is idle, so
      records are neither skipped nor re-applied;
    - leader identity is {e epoch-fenced}: the epoch lives in a file
      in the store directory, every streamed frame carries it, and a
      replica promoted to epoch [e] refuses any stream with epoch
      [< e] — a deposed leader cannot un-promote it.

    Everything here waits on I/O, so it runs on systhreads in the
    caller's domain: each connection (query, ship or subscription) on
    its own thread, and the replica's follower. A subscription is one
    thread: it sends what the WAL holds, then blocks in
    {!Rs_serve.Service.await} until the next ack, the leader's stop or
    [heartbeat_s] of quiet, which sends one heartbeat. The service's
    writer and readers are the only domains, so a process's domain
    count does not grow with its connections or followers. *)

(** {1 Epoch fencing} *)

val read_epoch : dir:string -> int
(** The epoch recorded in [dir]'s [epoch] file; [0] when absent. *)

val write_epoch : dir:string -> int -> unit
(** Persist atomically (temp + rename). *)

(** {1 Leader} *)

type leader_config = {
  frame_timeout_s : float;
      (** per-frame read/write deadline (an idle query session's
          wait for the next request's first byte has none); a follower
          whose send misses it is dropped *)
  heartbeat_s : float;  (** quiet period after which an idle follower gets a heartbeat *)
  ship_chunk : int;  (** snapshot ship chunk bytes *)
  sender_delay_s : float Atomic.t;
      (** chaos knob: sleep per snapshot-ship chunk, so a ship can be
          cut mid-file deterministically *)
}

val default_leader_config : unit -> leader_config
(** 5 s frames, 0.5 s heartbeats, 256 KiB chunks, no delay. (A
    function: the config carries a fresh atomic.) *)

type leader

val lead :
  ?config:leader_config ->
  ?proto_env:Proto.env ->
  ?server:Tcp.server ->
  service:Rs_serve.Service.t ->
  store_dir:string option ->
  host:string ->
  port:int ->
  unit ->
  (leader, string) result
(** Start serving on [host:port] ([port = 0] picks one — see
    {!leader_port}). [?server] supplies a pre-bound listener instead
    — the CLI binds {e before} opening any store so a taken port is a
    one-line exit, not a half-initialized service.
    [store_dir = None] (ephemeral backend) serves
    queries only: join and ship requests are refused with a reason.
    Otherwise the leader's epoch is [max 1 (read_epoch dir)],
    persisted back, and followers are fed by tailing the directory's
    WAL segments. [?proto_env] overrides how ['Q'] sessions evaluate
    lines (default {!Proto.leader_env}) — a promoted or query-serving
    replica passes an environment that rejects [delta] lines and
    advertises its lag. *)

val leader_port : leader -> int
val leader_epoch : leader -> int

val followers : leader -> int
(** Live WAL subscriptions. *)

val leader_set_refuse : leader -> bool -> unit
(** Partition chaos: refuse new connections (see {!Tcp.set_refuse}). *)

val leader_drop_connections : leader -> int
(** Partition chaos: sever every live connection. *)

val stop_leader : leader -> unit
(** Stop the listener and end every connection, followers at once
    (they are woken from their wait for the next ack). Does {e not}
    stop the underlying service. Idempotent. *)

(** {1 Replica} *)

type replica_config = {
  r_frame_timeout_s : float;
  reconnect_base_s : float;
  reconnect_max_s : float;  (** backoff cap *)
  max_retries : int;  (** consecutive failed connects before giving up *)
  seed : int;  (** backoff jitter *)
  fsync : Rs_store.Wal.policy;  (** the replica's own WAL durability *)
  apply_delay_s : float Atomic.t;
      (** chaos knob: sleep before offering each streamed record (a
          slow consumer) *)
}

val default_replica_config : unit -> replica_config

type replica

val follow :
  ?config:replica_config ->
  ?health_file:string ->
  service_config:Rs_serve.Service.config ->
  dir:string ->
  host:string ->
  port:int ->
  unit ->
  (replica, string) result
(** Attach to a leader. An empty [dir] is bootstrapped by shipping the
    leader's newest snapshot (resumable across interrupted attempts);
    a [dir] that already holds a store is recovered and resumed from
    its own sequence number. The service is started with
    [batch_max = 1] (forced), so the replica's sequence numbers match
    the leader's one to one. One follower thread receives the stream
    and offers each record to the service; while the ingest queue is
    full it blocks until there is room (or {!detach}), and any other
    rejection ends the stream.
    [?health_file] is the service's health file, its lines suffixed
    [" role=replica leader_seq=N lag=N connected=B epoch=E"] (as are
    [status] replies). *)

val replica_service : replica -> Rs_serve.Service.t
(** Query it directly; writes should go through the leader. *)

val lag : replica -> int
(** Leader's last advertised seq minus the replica's applied seq
    (clamped at 0) — the staleness bound served to clients. *)

val connected : replica -> bool

val gave_up : replica -> bool
(** The follower loop exhausted [max_retries] consecutive failed
    connection attempts and exited — the promote-on-disconnect signal.
    The follower's exit wakes {!Rs_serve.Service.await}s on the
    replica's service, so one can wait for it. *)

val reconnects : replica -> int
(** Total successful re-handshakes after a disconnect. *)

val replica_epoch : replica -> int

val last_error : replica -> string option
(** Why the stream last ended, e.g. the leader's ['E'] reason. *)

val detach : replica -> unit
(** Stop following (follower thread joined, socket closed); the
    service keeps serving what it has. Idempotent. *)

val promote : replica -> int
(** {!detach}, wait (up to 30 s) until the service is idle, bump and
    persist the epoch, and return it. The replica's service is now the freshest
    surviving state and refuses the deposed leader's stream. *)

val stop_replica : replica -> Rs_serve.Service.status
(** {!detach} then [Service.stop] (final snapshot, store closed). *)

val kill_replica : replica -> unit
(** {!detach} then [Service.kill] — crash simulation for chaos. *)

(** {1 Clients} *)

val ship :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  dir:string ->
  unit ->
  (int * string, string) result
(** Fetch the leader's newest snapshot into [dir], resuming a
    matching [.part] left by an interrupted attempt at its offset.
    The file is verified against the leader's whole-file CRC before
    the atomic rename; a mismatch discards the partial and reports an
    error (the next attempt starts clean). Returns (seq, path). *)

val connect_query :
  host:string -> port:int -> timeout_s:float -> (Unix.file_descr, string) result
(** Open a query session (sends the ['Q'] hello). *)

val request :
  Unix.file_descr -> timeout_s:float -> string -> (string, string) result
(** One line in, one reply out, over an open query session. *)
