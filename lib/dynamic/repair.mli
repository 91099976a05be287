(** Incremental spanner repair under topology deltas.

    The paper's locality promise (Propositions 1 and 5) made
    operational: a node's dominating tree is a function of the edges
    near it only — those with an endpoint within {!radius}: [r-1+beta]
    for the greedy (r, beta) trees, [r] for the MIS trees, 1 for the
    (2,0) k-connecting stars and 2 for the (2,1) ones — so when a
    delta touches the topology, only the roots whose
    {e relevant neighborhood} (in the old {e or} the new graph)
    intersects the changed edges need their trees recomputed. [Repair]
    maintains the full union-of-trees spanner across deltas by:

    + computing the dirty set with bounded BFS from the delta's
      touched endpoints, at the spec's locality radius, over stamped
      arrays — O(balls), not O(n);
    + recomputing dominating trees for dirty roots only, in
      multi-source BFS batches through {!Rs_core.Sharded.iter_trees} —
      the same engine as a from-scratch build;
    + splicing the new trees into the maintained edge multiset — an
      [int] reference count per {!Rs_graph.Graph.edge_id}, carried
      from the old ids to the new ones by one merge over the two sorted
      edge arrays, so an edge leaves the spanner exactly when its last
      contributing tree drops it;
    + certifying the repair locally — (a) every retained tree edge
      survives in the new graph (decided by that merge), (b) every
      recomputed tree passes {!Rs_core.Certificate.check}, the paper's
      own definition checked inside the root's ball, and every tree on
      the fringe of the dirty region equals its recomputation — and
      {e escalating} to a full rebuild when a gate fails.

    By Props. 1/4/5 a union of valid dominating trees is a
    remote-spanner of the family's guarantee, so no global stretch
    check runs on this path; that (alpha, beta) BFS oracle lives in
    {!check}, which tests, recovery and the chaos harnesses apply.

    Per-root trees are kept as flat [int] arrays of [(parent, child)]
    pairs; no O(n) tree is held. With the correct locality radius the
    repair never escalates and the repaired spanner is identical, root
    tree by root tree, to a from-scratch build on the new graph (the
    equivalence property tests assert exactly this). An
    under-estimated radius (see [?dirty_radius]) leaves a non-empty
    fringe; a fringe tree that differs from its recomputation fails
    gate (b), so such an apply degrades to a costlier full rebuild —
    never to a valid but different spanner. *)

open Rs_graph

(** Which dominating-tree family the maintained spanner unions:
    {!Rs_core.Sharded.strategy}, re-exported. *)
type spec = Rs_core.Sharded.strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

val pp_spec : Format.formatter -> spec -> unit
(** {!Rs_core.Sharded.pp_strategy}. *)

val radius : spec -> int
(** Locality radius of the spec's tree construction: a root whose
    distance to every delta endpoint exceeds this (in both the old and
    the new graph) provably computes the same tree. *)

val alpha_beta : spec -> (float * float) option
(** The (alpha, beta) remote-spanner guarantee of the union, checked
    by {!check}; [None] for parameterizations the paper proves no
    distance bound for (e.g. [Gdy] with [beta >= 2] — those spanners
    are still certified tree by tree). *)

val build : spec -> Graph.t -> Edge_set.t
(** From-scratch union of the spec's trees over all roots —
    [Rs_core.Sharded.build ~domains:1], the reference the repaired
    spanner is checked against. *)

val check : what:string -> Graph.t -> (spec * Edge_set.t) list -> unit
(** The end-state oracle every gate in the repo applies to a published
    view: each spanner must equal [build spec g] edge for edge and, when
    {!alpha_beta} gives a bound, pass {!Rs_core.Verify.is_remote_spanner}
    at it (the union of valid dominating trees is a remote-spanner,
    Props. 1/4/5). Raises [Failure] naming [what] and the spec
    otherwise. *)

(** {1 Maintained state} *)

type t
(** A graph, one dominating tree per root, and their refcounted edge
    union. *)

val init : spec -> Graph.t -> t
(** Full build: one tree per root, all roots batched through
    {!Rs_core.Sharded.iter_trees} in locality order. *)

val graph : t -> Graph.t
(** The current host graph ({e after} all applied deltas). *)

val spanner : t -> Edge_set.t
(** The maintained spanner over {!graph}. Owned by the repair state —
    do not mutate; it is replaced wholesale by {!apply}. *)

val pairs : t -> (int * int) list
(** The spanner as sorted canonical pairs — host-independent, for
    equivalence checks against a from-scratch build. *)

val publish : t -> Graph.t * Edge_set.t
(** The current [(graph, spanner)] pair as an immutable snapshot:
    {!apply} replaces both values wholesale (a fresh graph and a fresh
    edge set are built for every non-quiescent delta) and never
    mutates a previously returned one, so the pair may be handed to
    concurrent reader domains and stays valid — frozen at this
    generation — across later applies. This is the publication seam
    the resident service's atomic snapshot pointer is built on. *)

val export_trees : t -> (int * int) list array
(** Per-root [(parent, child)] tree edge lists, shallow-first (by
    child depth, then child id) — the
    exact state a durable snapshot must persist for {!restore} to
    resurrect this value without rerunning any construction. The
    returned array and lists are fresh. *)

val restore : spec -> Graph.t -> trees:(int * int) list array -> t
(** Rebuild maintained state from stored per-root trees: refcounts and
    the spanner edge set are rederived, {e no} BFS or tree construction
    runs — this is what makes crash recovery from a snapshot fast.
    Validates each list with {!Rs_core.Certificate.replay} — every
    stored edge exists in [g], and the list replays into a well-formed
    rooted tree — in O(tree) per root; raises [Failure] with a one-line
    diagnostic otherwise. [restore spec g ~trees:(export_trees st)] is
    equivalent to [st] whenever [g] equals [graph st]. *)

type level =
  | Local  (** dirty set only — the fast path *)
  | Full  (** a gate failed: from-scratch rebuild *)

type outcome = {
  dirty : int;  (** size of the dirty set *)
  rebuilt : int;  (** trees recomputed, the full rebuild included *)
  escalations : int;  (** 1 when the repair fell back to [Full], else 0 *)
  level : level;  (** rung at which verification passed *)
  edges_changed : int;  (** spanner edges added + removed by the repair *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val apply : ?dirty_radius:int -> t -> Delta.t -> outcome
(** Apply one delta batch and repair the spanner:
    [apply_change st (Delta.change (graph st) d)]. A delta with empty
    net effect recomputes nothing and leaves both {!graph} and
    {!spanner} physically untouched. Records [repair/*] counters
    (dirty nodes, trees rebuilt, escalations, saved BFS runs) and the
    [repair/latency] histogram (milliseconds per apply).

    [?dirty_radius] overrides the spec's locality radius — a testing
    and experimentation hook: an under-estimate leaves a fringe of
    roots that are recomputed and compared, and a fringe tree that
    changed fails the gate and escalates to [Full]. *)

val apply_change : ?dirty_radius:int -> t -> Delta.change -> outcome
(** {!apply} for a delta already resolved against {!graph}, so callers
    maintaining several spanners over one graph (the store, the
    service) compute the net effect and the patched graph once. The
    repaired state adopts [change.after] as its graph. Raises
    [Invalid_argument] when [change.before] is not {!graph}. *)

val incremental_target : spec -> Graph.t -> (int * int) list
(** A stateful maintainer for {!Rs_distributed.Periodic.simulate}'s
    [?incremental] hook: the first call initializes a repair state from
    the given graph, every later call diffs against the previous graph
    and repairs; returns the maintained spanner as sorted canonical
    pairs. Each returned closure owns its own state. *)
