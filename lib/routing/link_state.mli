(** Link-state routing over a partially advertised topology.

    The paper's motivation (Section 1): a link-state protocol floods
    only a sub-graph H of the real topology G; every router [u] still
    knows its own neighbors, so it routes on H_u = H + its incident
    edges, forwarding a packet for [v] to its neighbor closest to [v]
    in H_u. The delivered route has length at most [d_{H_u}(u, v)], so
    H being an (alpha, beta)-remote-spanner bounds the route stretch
    by (alpha, beta). This module simulates that forwarding loop and
    measures route stretch and advertisement overhead.

    {b One BFS per route.} A simple path from [u] uses one of [u]'s
    links, so for H a sub-graph of G

    {v d_{H_u}(u, v) = 1 + min over w in N_G(u) of d_H(w, v) v}

    and [u]'s neighbors closest to [v] in H_u are exactly those
    closest to [v] in H. (A path from [w] that detours through [u]
    has length at least [2 + min_w' d_H(w', v)], so it never ties the
    minimum.) Every hop of a route therefore reads the same distances
    [d_H(·, dst)]: {!route} and {!next_hop} run one BFS from [dst] over
    H, then pick the closest neighbor per hop — the same hops as a
    fresh search of each H_c. {!make} enforces H ⊆ G, which the
    identity needs. *)

open Rs_graph

type t

val make : Graph.t -> Edge_set.t -> t
(** A routing domain: real topology [g], advertised sub-graph [h]. *)

val graph : t -> Graph.t

val spanner : t -> Graph.t
(** The advertised sub-graph as a standalone CSR graph on G's vertex
    set ({!Rs_graph.Edge_set.to_graph} of [h], built once by {!make};
    later changes to [h] are not seen). Its rows are sorted, so
    [Graph.csr] reads a node's advertisement directly. *)

val next_hop : t -> src:int -> dst:int -> int option
(** The neighbor of [src] closest to [dst] in H_src (smallest id on
    ties); [None] when [dst] is unreachable in H_src. One BFS over H
    from [dst] on a domain-local scratch, the contract of
    {!Rs_graph.Bfs.Scratch}: allocation-free apart from the result. *)

val route : t -> src:int -> dst:int -> Path.t option
(** Full greedy forwarding: every hop re-decides with its own H_c.
    Returns the traversed path, or [None] if forwarding fails
    (unreachable, or a walk longer than n hops — which the identity
    above rules out: past the first hop [d_H(·, dst)] strictly drops).
    Costs one BFS over H from [dst] plus a scan of each hop's
    G-neighbors; allocates only the path. *)

type stretch_report = {
  pairs : int;  (** routable ordered pairs measured *)
  delivered : int;
  worst_mult : float;  (** max over pairs of |route| / d_G *)
  worst_add : int;  (** max over pairs of |route| - d_G *)
  mean_mult : float;
  hops_total : int;
}

val measure_stretch : ?pairs:(int * int) list -> t -> stretch_report
(** Route every ordered connected pair (or the given sample) and
    compare with the true distance. Pairs are taken destination-major
    and each run of consecutive pairs with one destination shares one
    BFS over H and one over G, so an all-pairs report costs 2n BFS
    runs. *)

val advertisement_size : t -> int
(** Total link-state advertisement volume per flooding period: every
    node advertises its incident H-links, so the sum is 2|E(H)|
    (|E(G)| directed entries for full link-state). *)
