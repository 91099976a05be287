(** Link-state routing over a partially advertised topology.

    The paper's motivation (Section 1): a link-state protocol floods
    only a sub-graph H of the real topology G; every router [u] still
    knows its own neighbors, so it routes on H_u = H + its incident
    edges, forwarding a packet for [v] to its neighbor closest to [v]
    in H_u. The delivered route has length at most [d_{H_u}(u, v)], so
    H being an (alpha, beta)-remote-spanner bounds the route stretch
    by (alpha, beta). This module simulates that forwarding loop and
    measures route stretch and advertisement overhead. *)

open Rs_graph

type t

val make : Graph.t -> Edge_set.t -> t
(** A routing domain: real topology [g], advertised sub-graph [h]. *)

val graph : t -> Graph.t

val adjacency : t -> int array array
(** The advertised sub-graph's sorted adjacency rows
    ({!Rs_graph.Edge_set.to_adjacency} of [h], built once by {!make}).
    Owned by the domain; do not mutate. *)

val next_hop : t -> src:int -> dst:int -> int option
(** The neighbor of [src] closest to [dst] in H_src (smallest id on
    ties); [None] when [dst] is unreachable in H_src. *)

val route : t -> src:int -> dst:int -> Path.t option
(** Full greedy forwarding: every hop re-decides with its own H_c.
    Returns the traversed path, or [None] if forwarding fails
    (unreachable or a loop longer than n hops — the latter cannot
    happen over a remote-spanner, and is asserted in tests). *)

type stretch_report = {
  pairs : int;  (** routable ordered pairs measured *)
  delivered : int;
  worst_mult : float;  (** max over pairs of |route| / d_G *)
  worst_add : int;  (** max over pairs of |route| - d_G *)
  mean_mult : float;
  hops_total : int;
}

val measure_stretch : ?pairs:(int * int) list -> t -> stretch_report
(** Route every ordered non-adjacent connected pair (or the given
    sample) and compare with the true distance. *)

val advertisement_size : t -> int
(** Total link-state advertisement volume per flooding period: every
    node advertises its incident H-links, so the sum is 2|E(H)|
    (|E(G)| directed entries for full link-state). *)
