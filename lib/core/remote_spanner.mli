(** Remote-spanner constructions (Algorithm RemSpan and Theorems 1-3).

    Every construction is the union, over all roots [u], of one
    dominating tree for [u]; the resulting sub-graph [H] is returned as
    an {!Rs_graph.Edge_set.t} over the input graph. The centralized
    entry points below compute each node's tree from global data —
    provably the same trees the distributed Algorithm 3 computes from
    r-hop neighborhood views ({!Distributed} runs that version through
    the LOCAL-model simulator and returns round/message counts). The
    centralized entry points run {!Sharded.build} on one domain; call
    it with [?domains] to fan out. *)

open Rs_graph

val r_of_eps : float -> int
(** [r_of_eps eps = ceil(1/eps) + 1], the dominating-tree radius of
    Proposition 1. Requires [0 < eps <= 1]. *)

val rem_span : Graph.t -> r:int -> beta:int -> Edge_set.t
(** Union of Algorithm-1 greedy (r, beta)-dominating trees. By
    Proposition 1, with [beta = 1] and [r = r_of_eps eps] this is a
    (1+eps, 1-2eps)-remote-spanner. *)

val low_stretch : Graph.t -> eps:float -> Edge_set.t
(** Theorem 1: union of Algorithm-2 MIS (r_of_eps eps, 1)-dominating
    trees — a (1+eps, 1-2eps)-remote-spanner with O(eps^-(p+1) n)
    edges on unit ball graphs of doubling dimension p. *)

val exact_distance : Graph.t -> Edge_set.t
(** (1, 0)-remote-spanner (exact distances preserved): union of greedy
    (2,0)-dominating trees — the k = 1 case of Theorem 2, also the
    classical multipoint-relay sub-graph. *)

val k_connecting : Graph.t -> k:int -> Edge_set.t
(** Theorem 2: union of Algorithm-4 trees — a k-connecting
    (1,0)-remote-spanner with edges within [2(1+log Delta)] of
    optimal, O(k^(2/3) n^(4/3) log n) expected edges on random unit
    disk graphs. *)

val two_connecting : Graph.t -> Edge_set.t
(** Theorem 3: union of Algorithm-5 trees with k = 2 — a 2-connecting
    (2,-1)-remote-spanner with O(n) edges on unit ball graphs of
    doubling metrics. *)

val k_connecting_mis : Graph.t -> k:int -> Edge_set.t
(** Union of Algorithm-5 trees for arbitrary k (the paper proves the
    remote-spanner property for k = 2; larger k still yields
    k-connecting dominating trees and is exercised as an extension). *)

(** Distributed execution of Algorithm 3 (RemSpan).

    Phase 1: every node floods its adjacency [radius] hops (learning
    the ball it needs); phase 2: every node computes its dominating
    tree locally from that view; phase 3: trees are flooded back
    [radius] hops so that every node knows the spanner edges relevant
    to it. Total rounds = 2*radius + 1 = 2r - 1 + 2*beta, independent
    of n — the paper's "constant time" claim, measured by E9. *)
module Distributed : sig
  type report = {
    spanner : Edge_set.t;
    collect_stats : Rs_distributed.Sim.stats;  (** phase-1 traffic *)
    flood_stats : Rs_distributed.Sim.stats;  (** phase-3 traffic *)
    rounds_total : int;
  }

  val rem_span : Graph.t -> r:int -> beta:int -> report
  (** Distributed Algorithm 1 + RemSpan. Each node's tree is computed
      from its collected view only; a mismatch with the centralized
      tree would be a locality bug (asserted in tests). *)

  val k_connecting : Graph.t -> k:int -> report
  (** Distributed Theorem 2 (radius 1: Algorithm 4 needs the 2-hop
      view, obtained after one exchange of neighbor lists... radius
      [1 + 0]); see {!rem_span} for the phase structure. *)

  val two_connecting : Graph.t -> report
  (** Distributed Theorem 3 (Algorithm 5, k = 2, radius 2). *)
end
