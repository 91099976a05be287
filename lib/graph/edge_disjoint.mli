(** Edge-disjoint paths and the edge-k-connecting distance.

    The paper's concluding remark suggests extending remote-spanners
    to edge-connectivity, "where we consider paths that are
    edge-disjoint rather than internal-node disjoint". This module is
    the substrate for that extension: [d^k] with edge-disjointness,
    computed by {!Disjoint_paths}' min-cost flow engine in its edge
    mode, {e without} vertex splitting (each undirected edge has one
    unit of capacity shared by both directions). For H_s, use
    {!Disjoint_paths.augmented_profile} [Edge].

    Since internally vertex-disjoint paths are edge-disjoint,
    [dk_edge <= dk_vertex] pointwise, and the edge version can be
    finite where the vertex version is not (e.g. bow-tie graphs). *)

val dk_profile : Graph.t -> kmax:int -> int -> int -> int array
(** [dk_profile g ~kmax s t]: [a.(i-1)] is the minimum total length of
    [i] pairwise edge-disjoint s-t paths; shorter than [kmax] when
    fewer exist. *)

val dk : Graph.t -> k:int -> int -> int -> int option

val max_disjoint : Graph.t -> int -> int -> int
(** Maximum number of pairwise edge-disjoint s-t paths (edge version
    of Menger: equals the minimum s-t edge cut). *)

val min_sum_paths : Graph.t -> k:int -> int -> int -> Path.t list option
(** [k] edge-disjoint s-t paths of minimum total length. The returned
    walks are edge-simple; vertices may repeat across paths (but each
    returned path is itself a simple path after decomposition). *)

val edges_pairwise_disjoint : Path.t list -> bool
(** No undirected edge appears in two of the paths (or twice in one). *)
