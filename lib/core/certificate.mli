(** The paper's local certificate, applied to one tree at the cost of
    its root's ball: the library's one checker of the dominating-tree
    definitions.

    Props. 1, 4 and 5 say a union of valid dominating trees {e is} a
    remote-spanner of the matching guarantee. So a maintained spanner
    is certified by checking each tree against the definition of its
    family — (r, beta)-dominating ({!Dom_tree}) or k-connecting
    (2, beta)-dominating ({!Dom_tree_k}) — which only reads the root's
    bounded ball: no global distance oracle.

    Trees are given in the library's one tree form, the flat pairs
    every construction returns ({!Dom_tree.gdy}, {!Sharded.iter_trees})
    and [Rs_dynamic.Repair] stores: [pairs.(2i), pairs.(2i+1)] is the
    [i]-th [(parent, child)] edge, every parent being the root or an
    earlier child. Membership, depth and first hop live in
    generation-stamped arrays, and the domination scan runs over a
    radius-bounded {!Rs_graph.Bfs.Scratch} traversal, so one check
    costs O(tree + ball), not O(n). *)

open Rs_graph

type t
(** Reusable checker state. Grows with the largest graph seen; must
    not be shared between domains. *)

val create : unit -> t

val replay : t -> Graph.t -> root:int -> int array -> (unit, string) result
(** Replays the pairs into a rooted tree: each edge must belong to
    the graph, each parent must already be a member, and no child may
    be the root or appear twice. [Error] carries a one-line reason.
    O(tree), no traversal. *)

val check : t -> Graph.t -> Sharded.strategy -> root:int -> int array -> bool
(** {!replay}, then the domination condition of the strategy's family:
    [Gdy {r; beta}] and [Mis {r}] (beta 1) are checked as
    (r, beta)-dominating trees, [Gdy_k {k}] and [Mis_k {k}] as
    k-connecting (2, 0)- and (2, 1)-dominating trees. The tests hold
    it to a literal reference copy of both definitions on every tree
    the constructions build and on truncations of them. *)
