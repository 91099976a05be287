(** (r, beta)-dominating trees (paper, Section 1.1 and 2.2).

    Given a node [u], an (r, beta)-dominating tree T for [u] is a tree
    sub-graph rooted at [u] such that every node [v] at distance [r']
    from [u], for [2 <= r' <= r], has a neighbor [x] in [V(T)] with
    [d_T(u, x) <= r' - 1 + beta]. Unions of such trees over all roots
    are exactly the low-stretch remote-spanners (Proposition 1).

    Two constructions from the paper:
    - {!gdy}: Algorithm 1 (DomTreeGdy), a layered greedy set cover —
      edges within a factor [(1+beta)(r+beta-1)(1+log Delta)] of the
      optimal dominating tree (Proposition 2);
    - {!mis}: Algorithm 2 (DomTreeMIS), greedy maximal independent set
      by increasing distance — [O(r^(p+1))] edges on unit ball graphs
      of doubling dimension [p] (Proposition 3); only for [beta = 1].

    Trees are flat pair arrays, the one tree form of the library:
    [pairs.(2i), pairs.(2i+1)] is the [i]-th [(parent, child)] edge in
    emission order, and every parent is the root or an earlier child.
    {!Certificate.check} is the checker of the definition above. *)

open Rs_graph

val gdy : ?scratch:Bfs.Scratch.t -> Graph.t -> r:int -> beta:int -> int -> int array
(** [gdy g ~r ~beta u]: Algorithm 1. For each layer [r' = 2..r] it
    covers the sphere S = {v : d(u,v) = r'} greedily with balls
    [B(x,1)] for x in the annulus [r'-1 <= d(u,x) <= r'-1+beta],
    grafting a shortest path u..x per pick. Ties broken by smallest
    vertex id (deterministic). Requires [r >= 1], [beta >= 0].

    One combined BFS supplies distances and parents; the cover is a
    lazy greedy ({!Rs_setcover.Setcover.greedy}). Pass [~scratch] to
    reuse traversal state across many roots — per-tree work is then
    proportional to the explored ball, not to [n]: membership lives in
    the scratch's stamped {!Bfs.Scratch.tree} set and only the
    tree-sized result is allocated. The scratch must not be shared
    between domains. The pairs are exactly those {!Sharded.iter_trees}
    hands over for [u], in the same order. *)

val mis : ?scratch:Bfs.Scratch.t -> Graph.t -> r:int -> int -> int array
(** [mis g ~r u]: Algorithm 2 (beta fixed to 1). Greedily selects a
    maximal independent set of [B(u,r) \ B(u,1)] by increasing
    distance from [u] (ties by id) and grafts shortest paths.
    [~scratch] as in {!gdy}. *)

(** {2 Edge-emitting cores}

    Everything after the root's traversal, abstracted over edge and
    membership storage so the per-root wrappers above and the batched
    builder ([Rs_core.Sharded]) run the same code against their own
    stamped sets and edge accumulators. [levels] is the explored ball
    grouped by BFS level (index = distance, each level sorted by id —
    what {!Bfs.Scratch} and [Msbfs] both produce); [parent_of] maps a
    non-root ball vertex to its canonical BFS parent; [add p c]
    records tree edge (p, c) and must make [c] a member of [mem].
    Initially exactly the root is a member. *)

val collect :
  Bfs.Scratch.t -> int -> (mem:(int -> bool) -> add:(int -> int -> unit) -> unit) -> int array
(** [collect s root emit] runs an emit core for [root] with
    membership in [s]'s {!Bfs.Scratch.tree} set and returns the
    emitted pairs flat — the last step of every per-root wrapper. *)

val gdy_emit :
  Graph.t ->
  r:int ->
  beta:int ->
  levels:int array array ->
  parent_of:(int -> int) ->
  mem:(int -> bool) ->
  add:(int -> int -> unit) ->
  unit
(** Core of {!gdy}; [levels] must cover distances [0 .. r + beta].
    Assumes [r >= 1 && beta >= 0] (the wrapper validates). *)

val mis_emit :
  Graph.t ->
  r:int ->
  levels:int array array ->
  parent_of:(int -> int) ->
  mem:(int -> bool) ->
  add:(int -> int -> unit) ->
  dead_mem:(int -> bool) ->
  dead_add:(int -> unit) ->
  unit
(** Core of {!mis}; [levels] must cover distances [0 .. r], and
    [dead_mem]/[dead_add] expose an initially-empty vertex set used
    for the independent-set removals. Assumes [r >= 1]. *)

val optimal_size_star : ?limit:int -> Graph.t -> int -> int option
(** Exact minimum edge count of a (2, 0)-dominating tree for [u].
    For r = 2, beta = 0 such a tree is a star of common neighbors, so
    the optimum is exactly a minimum set cover of the 2-sphere by
    neighbor balls — solved exactly by branch and bound ([limit] caps
    search nodes). This is the case where Proposition 2's ratio
    specializes to [1 + log Delta]; experiment E11 measures the real
    ratio against this optimum. *)

val optimal_lower_bound : ?limit:int -> Graph.t -> r:int -> beta:int -> int -> int option
(** Lower bound on the edges of any (r, beta)-dominating tree for [u].
    Any such tree must contain, for each layer [r'], enough annulus
    vertices to dominate the [r']-sphere (a node at depth d of the tree
    costs d path edges shared with at most 1+beta layers). The bound
    combines per-layer exact minimum covers [c_r'] as
    [max(max_r' (r'-1 + ceil((c_r'-1)/(1+beta))),
         ceil(sum_r' c_r' / (1+beta)))].
    Exact covers come from branch and bound ([limit] caps nodes; [None]
    on blow-up). Used to report ratio upper estimates for r > 2. *)
