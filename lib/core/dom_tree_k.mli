(** k-connecting (2, beta)-dominating trees (paper, Section 3).

    A k-connecting (2, beta)-dominating tree T for [u] is a tree
    rooted at [u] such that every node [v] at distance 2 from [u]
    satisfies one of:
    - [v] has k neighbors in [B_T(u, 1+beta)] whose tree paths to [u]
      are pairwise internally disjoint (share only [u]); or
    - every common neighbor [w] of [u] and [v] has edge [uw] in T.

    For k = 1 this degenerates to a (2, beta)-dominating tree. Unions
    over all roots give k-connecting remote-spanners: (2, 0)-trees
    characterize k-connecting (1,0)-remote-spanners (Proposition 5),
    2-connecting (2, 1)-trees yield 2-connecting
    (2,-1)-remote-spanners (Proposition 4).

    In a rooted tree, root paths to two nodes are internally disjoint
    iff the nodes lie under different children of the root, so the
    "k disjoint paths" test reduces to counting distinct depth-1
    ancestors; {!Certificate.check} checks the definition that way.

    Trees are flat pair arrays, as in {!Dom_tree}. *)

open Rs_graph

val gdy_k : ?scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> int array
(** Algorithm 4 (DomTreeGdy_{2,0,k}): greedy k-multicover of the
    2-sphere of [u] by neighbor balls ({!Rs_setcover.Setcover}'s lazy
    greedy); the tree is a star around [u]. Edge count within
    [1 + log Delta] of the optimal k-connecting (2,0)-dominating tree
    (Proposition 6). Ties by smallest id. Pass [~scratch] to reuse BFS
    state across roots (per-tree work proportional to the 2-ball, not
    [n]); a scratch must not be shared between domains. The pairs are
    exactly those {!Sharded.iter_trees} hands over for [u]. *)

val gdy_k_emit :
  Graph.t -> k:int -> sphere:int array -> int -> add:(int -> int -> unit) -> unit
(** Edge-emitting core of {!gdy_k}: everything after the radius-2
    traversal, with [sphere] the id-sorted 2-sphere of the root and
    [add u relay] invoked per star edge; shared by {!gdy_k} and the
    batched builder ([Rs_core.Sharded]). Assumes [k >= 1]. *)

val mis_k : ?scratch:Bfs.Scratch.t -> Graph.t -> k:int -> int -> int array
(** Algorithm 5 (DomTreeMIS_{2,1,k}): k rounds of greedy maximal
    independent sets over the not-yet-dominated 2-sphere; each picked
    node [x] is attached through a fresh common neighbor and up to
    [k-1] further fresh relays become extra root children. O(k^2)
    edges on unit ball graphs of doubling metrics (Proposition 7). *)

val mis_k_emit :
  Graph.t ->
  k:int ->
  sphere:int array ->
  int ->
  mem:(int -> bool) ->
  add:(int -> int -> unit) ->
  unit
(** Edge-emitting core of {!mis_k}, the counterpart of {!gdy_k_emit}:
    [sphere] is the id-sorted 2-sphere of the root; [mem]/[add] are
    tree membership and edge recording as in {!Dom_tree.gdy_emit}
    (initially only the root is a member). Reads the CSR only.
    Assumes [k >= 1]. *)
