(** Batched, sharded construction of remote-spanners at scale.

    Every construction in this library is a union of per-root
    dominating trees. This module replaces the root-at-a-time loop
    with three coordinated mechanisms (see docs/PERFORMANCE.md,
    "Scaling"):

    - roots are traversed [Rs_graph.Msbfs.width] at a time by the
      bit-parallel multi-source BFS, in a locality order that makes
      each batch's balls overlap;
    - batches are fanned over domains by the work-stealing {!drive};
    - each domain emits canonical edge ids into a flat int
      accumulator, merged once into the result set — no O(n) state
      per root, no per-tree [Edge_set.t].

    The resulting edge set is {e identical} to the sequential
    per-root reference for every strategy and domain count
    (QCheck-asserted), and so is every tree {!iter_trees} hands over:
    trees depend only on their root's ball and every tie-break is by
    vertex id. The [core/trees_built], [bfs/runs] and
    [bfs/expansions] totals also match the sequential run exactly. *)

open Rs_graph

(** Which per-root tree to build — the one spec type of the library
    ({!Rs_dynamic.Repair.spec} and the snapshot codec re-export it).
    The unions are {!Remote_spanner.rem_span}, [low_stretch],
    [exact_distance]/[k_connecting] and
    [k_connecting_mis]/[two_connecting] respectively. *)
type strategy =
  | Gdy of { r : int; beta : int }  (** Algorithm 1 trees ({!Dom_tree.gdy}) *)
  | Mis of { r : int }  (** Algorithm 2 trees, beta = 1 ({!Dom_tree.mis}) *)
  | Gdy_k of { k : int }  (** Algorithm 4 stars, (2,0) ({!Dom_tree_k.gdy_k}) *)
  | Mis_k of { k : int }  (** Algorithm 5 trees, (2,1) ({!Dom_tree_k.mis_k}) *)

val pp_strategy : Format.formatter -> strategy -> unit
(** E.g. [gdy(r=3,beta=1)], [mis_k(k=2)]. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val drive :
  ?chunk:int -> n:int -> domains:int -> stop:(unit -> bool) ->
  ((unit -> (int * int) option) -> int) -> unit
(** Work-stealing scheduler over the range [0, n): each of [domains]
    domains (the calling one included) runs the worker with a [claim]
    function handing out inclusive chunks until the range is empty or
    [stop ()] is true; the worker returns its item count, recorded with
    its wall time in the [parallel/domain_items] and
    [parallel/domain_wall_s] histograms. [~chunk] overrides the
    auto-sized chunk (use [1] when each index is already a coarse unit
    of work). *)

val locality_order : Graph.t -> int array
(** Multi-restart BFS visit order: a permutation in which consecutive
    vertices are graph-close, so a batch of [Msbfs.width] consecutive
    roots has overlapping balls. The root order of {!build}.
    Not recorded as a bfs/runs traversal. *)

val build : ?domains:int -> Graph.t -> strategy -> Edge_set.t
(** [build g strat] is the union of [strat]'s dominating trees over
    all roots — the same edge set as the per-root trees of
    {!Dom_tree}/{!Dom_tree_k} unioned root by root, built batched, in
    {!locality_order}, and sharded. [?domains] defaults to
    {!default_domains} (forced to 1 below 64 vertices). Raises
    [Invalid_argument] on invalid strategy parameters. *)

val iter_trees : Graph.t -> strategy -> int array -> (int -> int array -> int -> unit) -> unit
(** [iter_trees g strat roots f] builds the tree of every root in
    [roots] on the calling domain, [Msbfs.width] roots per batch in the
    given order, and calls [f root pairs len] once per root: its
    emitted [(parent, child)] edges are
    [pairs.(2i), pairs.(2i+1)] for [i < len], in emission order (every
    parent is the root or an earlier child) — the flat tree form of
    the library, pair for pair what the per-root {!Dom_tree}/
    {!Dom_tree_k} entry points return. [pairs] is reused by the next
    call — copy what you keep. The engine behind {!build}, for
    callers that keep trees per root. Raises [Invalid_argument] on
    invalid strategy parameters. *)
