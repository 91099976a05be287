(** Minimum-cost maximum-flow on small directed networks.

    Successive-shortest-paths with Johnson potentials (Dijkstra on the
    reduced costs). Capacities and costs are non-negative integers.
    A built network with explicit arcs: the tests' reference for
    {!Rs_graph.Disjoint_paths}' implicit residual engine. One unit of
    flow per disjoint path, and the cumulative cost after the k-th
    unit is the minimum total length of k disjoint paths. *)

type t

val create : int -> t
(** [create n] makes an empty network on nodes [0..n-1]. *)

val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> unit
(** Add a directed arc. Negative capacity or cost is rejected. *)

val augment_unit : t -> s:int -> t_:int -> int option
(** Send one more unit of flow from [s] to [t_] along a shortest
    (reduced-cost) augmenting path. Returns the {e real} cost of that
    unit (so successive calls return a non-decreasing sequence), or
    [None] when no augmenting path exists. The network keeps its state
    between calls. *)

val min_cost_units : t -> s:int -> t_:int -> max_units:int -> int list
(** [min_cost_units net ~s ~t_ ~max_units] augments unit by unit, up to
    [max_units] times, and returns the list of per-unit costs in order
    (shorter than [max_units] when the flow saturates). The i-th prefix
    sum is the min-cost of an i-unit flow. *)

val flow_on : t -> arc:int -> int
(** Flow currently on the [arc]-th added arc (in insertion order). *)

val arcs_with_flow : t -> (int * int * int) list
(** All original arcs carrying positive flow, as (src, dst, flow). *)
