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
    disjoint paths there can be, so callers may pass any k. *)

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
