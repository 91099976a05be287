(** Bounded multi-producer multi-consumer queue — the service's
    backpressure primitive.

    Both service queues (delta ingest, read requests) are instances
    of this: a fixed capacity chosen at creation, a {e non-blocking}
    {!push} that rejects with a reason instead of growing without
    bound, and a {!pop_batch} that blocks on a condition variable until
    {!push} or {!close} wakes it — an idle consumer costs no CPU. Rejection at the
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
(** Never blocks, never grows the queue past capacity; wakes a {!pop_batch}. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Dequeue up to [max] elements in FIFO order, blocking until the
    first arrives. Returns [[]] only once the queue is closed and
    drained. *)

val take : 'a t -> max:int -> 'a list
(** {!pop_batch} without the wait: [[]] when the queue is empty. *)

val length : 'a t -> int

val close : 'a t -> unit
(** Reject all future pushes and wake every blocked {!pop_batch}.
    Elements already queued remain poppable (shutdown drains; it does
    not discard). *)
