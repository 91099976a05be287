(** Topology deltas: batchable descriptions of link and node churn.

    The unit of change the dynamic-repair subsystem consumes. A delta
    is an ordered batch of operations applied to a fixed vertex
    universe [0 .. n-1] (vertices are never created or destroyed —
    a "down" node merely loses its incident edges, mirroring
    {!Rs_graph.Graph.remove_vertex}). Ops inside one batch apply
    sequentially, so [Node_down u] followed by [Node_up (u, links)]
    models a crash/recover cycle in a single repair step.

    Deltas are the boundary between the fault regime (PR 4's plans,
    mobility-induced link flips) and {!Repair}: anything that changes
    the graph is first normalized into the {e effective} set of added
    and removed edges, which is what dirty-set tracking keys on —
    redundant ops (adding a present edge, removing an absent one)
    contribute nothing and cost nothing. *)

open Rs_graph

type op =
  | Add_edge of int * int
  | Remove_edge of int * int
  | Node_down of int  (** remove every edge currently incident *)
  | Node_up of int * int list  (** re-link the node to the listed neighbors *)

type t = op list
(** A batch, applied in order. The empty list is the quiescent delta. *)

val effect : Graph.t -> t -> (int * int) list * (int * int) list
(** [effect g d] is the {e net} [(added, removed)] canonical edge
    lists of applying [d] to [g], each sorted lexicographically — ops
    that cancel out (or are redundant against [g]) do not appear.
    Raises [Invalid_argument] on out-of-range vertices or self-loops.
    Costs O(|d| + degree of each downed node): the ops are folded into
    a small overlay over [g]'s adjacency probes, not into a copy of its
    edge set. *)

(** One delta resolved against one graph: its net effect and the graph
    it leads to, computed once and shared by every consumer (the WAL,
    each maintained spanner, the published view). *)
type change = {
  before : Graph.t;
  after : Graph.t;  (** [before] itself when the change is quiescent *)
  added : (int * int) list;  (** as in {!effect} *)
  removed : (int * int) list;
}

val change : Graph.t -> t -> change
(** {!effect} plus {!Rs_graph.Graph.patch}. Raises like {!effect}. *)

val quiescent : change -> bool
(** No net effect: [added] and [removed] both empty. *)

val apply : Graph.t -> t -> Graph.t
(** The graph after the batch (same vertex count), [(change g d).after].
    When the net effect is empty this returns [g] itself (physical
    equality), so quiescent deltas are observably free. *)

val diff : Graph.t -> Graph.t -> t
(** [diff g g'] is a delta turning [g] into [g'] (edge adds and
    removes; both graphs must have the same vertex count, checked).
    [apply g (diff g g')] equals [g']. *)

val touched : added:(int * int) list -> removed:(int * int) list -> int list
(** Distinct endpoints of the net effect, ascending — the seeds of
    dirty-set tracking. *)

(** {1 Delta files}

    Line-oriented text, [#] comments and blank lines ignored:

    {v
    add U V
    remove U V
    down U
    up U V1 V2 ...
    v} *)

val parse : string -> t
(** Raises [Failure] naming the offending line on malformed input. *)

val to_string : t -> string
(** The delta in the file format above, one op per line. Left inverse
    of {!parse}: [parse (to_string d) = d] for every delta whose
    [Node_up] links are non-empty (the only shape [parse] can produce;
    asserted by a QCheck round-trip property). This text is also the
    payload the [Rs_store] write-ahead log records carry. *)

val load : string -> t
(** [parse] over a file's contents. Raises [Sys_error] on I/O
    failure. *)

val pp_op : Format.formatter -> op -> unit
