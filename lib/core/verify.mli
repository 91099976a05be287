(** Independent verification oracles for remote-spanner properties.

    Every construction in this library is validated against these
    checkers, which implement the definitions directly and share no
    code with the constructions. Every guarantee is a statement about
    H_u = H plus u's own links, and H_u is never built:

    - stretch: one per-source kernel runs two BFSs from u, d_G(u,.)
      and d_{H_u}(u,.) (seeded with N_G(u), then through H alone);
      the four stretch oracles below are folds over it;
    - k-connecting stretch: {!Rs_graph.Disjoint_paths}' successive
      shortest paths run in H_s with s's arcs read from G's row, in
      vertex or edge mode. *)

open Rs_graph

type violation = {
  src : int;
  dst : int;
  d_g : int;  (** distance (or k-connecting distance) in G *)
  d_h : int;  (** same in H_src (max_int when unreachable) *)
}

val pp_violation : Format.formatter -> violation -> unit

val remote_spanner_violations :
  ?max_violations:int -> Graph.t -> Edge_set.t -> alpha:float -> beta:float -> violation list
(** All ordered pairs (u, v) of distinct, non-adjacent vertices with
    [d_G(u,v)] finite but [d_{H_u}(u,v) > alpha * d_G(u,v) + beta]
    (up to [max_violations], default 10). Empty iff H is an
    (alpha, beta)-remote-spanner. O(n (n + m)). *)

val is_remote_spanner :
  ?domains:int -> Graph.t -> Edge_set.t -> alpha:float -> beta:float -> bool
(** [remote_spanner_violations] is empty, decided by the same kernel
    with early abort. [?domains] (default 1) fans the sources over
    that many OCaml domains with {!Sharded.drive}'s work stealing
    (one domain below 64 vertices); a violation found anywhere stops
    every domain at its next source. The answer does not depend on
    [domains]. *)

type histogram = {
  pairs : int;  (** ordered non-adjacent connected pairs measured *)
  unreachable : int;  (** pairs with d_{H_u}(u,v) infinite *)
  exact : int;  (** pairs with d_{H_u} = d_G *)
  slack_counts : (int * int) list;
      (** (additive slack d_{H_u} - d_G, pair count), ascending slack *)
  mean_ratio : float;  (** mean of d_{H_u} / d_G over reachable pairs *)
}

val stretch_histogram : Graph.t -> Edge_set.t -> histogram
(** Full distribution of the remote stretch over all ordered
    non-adjacent connected pairs — worst cases (E7) tell only half the
    story; the histogram shows how rare the detours are. O(n (n+m)). *)

val worst_additive_slack : Graph.t -> Edge_set.t -> alpha:float -> float
(** [worst_additive_slack g h ~alpha] = max over valid pairs of
    [d_{H_u}(u,v) - alpha * d_G(u,v)]: the smallest [beta] making H an
    (alpha, beta)-remote-spanner ([neg_infinity] when no pair
    qualifies, [infinity] if some pair is disconnected in H_u). *)

val k_connecting_violations :
  ?max_violations:int ->
  ?pairs:(int * int) list ->
  Graph.t ->
  Edge_set.t ->
  alpha:float ->
  beta:float ->
  k:int ->
  violation list
(** Check the k-connecting stretch: for ordered pairs (s, t) of
    non-adjacent vertices and every [k' <= k] with [d^k'_G(s,t)]
    finite, require [d^k'_{H_s}(s,t) <= alpha * d^k'_G(s,t) + k' *
    beta]. Exhaustive over all pairs by default (O(n^2) flow
    computations — use [?pairs] to sample on larger graphs). The
    reported [d_g]/[d_h] are for the smallest violated [k']. *)

val is_k_connecting :
  ?pairs:(int * int) list ->
  Graph.t -> Edge_set.t -> alpha:float -> beta:float -> k:int -> bool

val edge_k_connecting_violations :
  ?max_violations:int ->
  ?pairs:(int * int) list ->
  Graph.t ->
  Edge_set.t ->
  alpha:float ->
  beta:float ->
  k:int ->
  violation list
(** Edge-connectivity variant of {!k_connecting_violations}, for the
    extension sketched in the paper's conclusion: [d^k'] measured over
    pairwise {e edge}-disjoint paths ({!Rs_graph.Edge_disjoint}).
    Experiment E13 evaluates which constructions satisfy it. *)

val is_edge_k_connecting :
  ?pairs:(int * int) list ->
  Graph.t -> Edge_set.t -> alpha:float -> beta:float -> k:int -> bool

val induces_dominating_trees : Graph.t -> Edge_set.t -> r:int -> beta:int -> bool
(** Does H contain an (r, beta)-dominating tree for every node?
    Exact: H contains such a tree for [u] iff for every [v] with
    [2 <= d_G(u,v) = r' <= r] some [x] in [N_G(v)] has
    [d_H(u, x) <= r' - 1 + beta] (shortest paths in H from [u] then
    assemble into one tree). This is the characterization side of
    Propositions 1 and 5 used by experiment E7. *)

val induces_k20_trees : Graph.t -> Edge_set.t -> k:int -> bool
(** Does H contain a k-connecting (2,0)-dominating tree for every
    node? Exact for beta = 0: depth-1 trees are stars, so the test is
    pointwise — every [v] at distance 2 of [u] has k common neighbors
    [x] with [ux] in H, or all its common neighbors [w] have [uw] in
    H. (Proposition 5's characterization.) *)
