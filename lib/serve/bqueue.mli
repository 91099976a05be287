(** Bounded multi-producer multi-consumer queue — the service's
    backpressure primitive.

    Both service queues (delta ingest, read requests) are instances of
    this: a fixed capacity chosen at creation, a {e non-blocking}
    {!push} that rejects with a reason instead of growing without
    bound, and a timed {!pop_batch} consumers poll so they can also
    notice shutdown and update liveness heartbeats. Rejection at the
    boundary is the overload-protection contract: memory held by a
    queue is [capacity * element], full stop. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

type reject =
  | Full of int  (** at capacity (the payload); caller should shed *)
  | Closed  (** draining for shutdown; no new work accepted *)

val reject_to_string : reject -> string
(** One-line reason, e.g. ["queue full (capacity 64)"]. *)

val push : 'a t -> 'a -> (unit, reject) result
(** Never blocks and never grows the queue past capacity. *)

val pop_batch : 'a t -> max:int -> timeout_s:float -> 'a list
(** Dequeue up to [max] elements in FIFO order, waiting up to
    [timeout_s] for the first to arrive. Returns [[]] on timeout or
    when the queue is closed and drained — consumers distinguish the
    two via {!is_closed}/{!length}. *)

val length : 'a t -> int
val is_closed : 'a t -> bool

val close : 'a t -> unit
(** Reject all future pushes. Elements already queued remain poppable
    (shutdown drains; it does not discard). *)
