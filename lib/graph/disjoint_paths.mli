(** Internally vertex-disjoint paths and the k-connecting distance.

    The paper measures multi-connectivity through
    [d^k(s,t)] = minimum total length of k pairwise internally
    vertex-disjoint s-t paths ([+infinity] when no k such paths exist).
    We reduce to min-cost unit-capacity flow by vertex splitting: each
    vertex other than [s], [t] becomes an arc of capacity one, each
    undirected edge two opposite arcs of cost one. The cumulative cost
    after the i-th augmentation is exactly [d^i(s,t)].

    The flow network is never built: successive shortest paths run on
    the implicit residual graph of [g]'s CSR, with flow and potentials
    in generation stamps on a domain-local scratch (one query at a time
    per domain, like {!Bfs.Scratch}). A query allocates its result and
    costs what its Dijkstra rounds touch, not O(n + m). No allocation
    is sized by [k] or [kmax] beyond min(deg s, deg t), the most
    disjoint paths there can be, so callers may pass any k.

    This is the library's only flow engine. Its edge mode (no vertex
    split: both arcs across a vertex always open) serves
    {!Edge_disjoint}, and its augmented entry points answer in
    H_s = H plus s's links without building H_s. *)

type mode =
  | Vertex  (** pairwise internally vertex-disjoint paths: the paper's [d^k] *)
  | Edge  (** pairwise edge-disjoint paths ({!Edge_disjoint}) *)

val dk_profile : Graph.t -> kmax:int -> int -> int -> int array
(** [dk_profile g ~kmax s t] returns an array [a] with
    [a.(i-1) = d^i(s,t)] for [1 <= i <= length a]; the array is shorter
    than [kmax] when fewer disjoint paths exist. [s <> t] required. *)

val dk : Graph.t -> k:int -> int -> int -> int option
(** [dk g ~k s t] is [Some (d^k(s,t))], or [None] when [s] and [t] are
    not k-connected. *)

val max_disjoint : Graph.t -> int -> int -> int
(** Menger number: the maximum number of pairwise internally
    vertex-disjoint s-t paths. For adjacent vertices the direct edge
    counts as one path. *)

val min_sum_paths : Graph.t -> k:int -> int -> int -> Path.t list option
(** [min_sum_paths g ~k s t] returns k pairwise internally disjoint
    paths of minimum total length, or [None] if fewer than k exist.
    The returned paths are valid simple paths of [g]. *)

val augmented_profile : mode -> Graph.t -> Graph.t -> kmax:int -> int -> int -> int array
(** [augmented_profile mode g h ~kmax s t] is the [mode] profile of
    [d^i(s,t)] in H_s: [h] plus every [g]-edge at [s]. H_s is never
    built: s's arcs come from [g]'s CSR row and every other arc from
    [h]'s. This is exact because an augmenting path never re-enters s
    and a min-cost flow routes nothing into s. [h] must be a subgraph
    of [g] on the same vertex set (a spanner's {!Edge_set.to_graph});
    with [h = g] it is the plain profile on [g]. [s <> t] required. *)

val augmented_min_sum_paths :
  mode -> Graph.t -> Graph.t -> k:int -> int -> int -> Path.t list option
(** [augmented_min_sum_paths mode g h ~k s t]: [k] pairwise disjoint
    (in [mode]'s sense) s-t paths of minimum total length in H_s, as
    for {!augmented_profile}, or [None] if fewer than [k] exist there.
    Each returned path is a simple path of [g]; equal-cost systems
    may tie-break differently from a run on a built H_s. *)
