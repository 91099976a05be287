(** Static, simple, undirected, unweighted graphs.

    Vertices are the integers [0 .. n-1]. The structure is immutable
    once built: adjacency lists are sorted arrays and every edge has a
    canonical identifier in [0 .. m-1] (edges sorted lexicographically
    as [(min u v, max u v)] pairs). Self-loops are rejected; duplicate
    edges are merged at construction.

    Internally the adjacency is a flat CSR layout (an [n+1] offset
    array into one packed neighbor array, with edge ids carried in
    lock-step), so neighbor iteration is a contiguous scan and
    adjacency/edge-id probes are binary searches over a vertex's sorted
    range — no hashing on any hot path (see docs/PERFORMANCE.md).

    This is the substrate every remote-spanner algorithm operates on. *)

type t

val make : n:int -> (int * int) list -> t
(** [make ~n edges] builds a graph on vertices [0..n-1]. Raises
    [Invalid_argument] on out-of-range endpoints or self-loops.
    Duplicate edges (in either orientation) are merged. *)

val of_arrays : n:int -> (int * int) array -> t
(** Same as {!make} from an array (the array is not retained). *)

val of_canonical : ?validate:bool -> n:int -> (int * int) array -> t
(** [of_canonical ~n edges] builds a graph from edges that are already
    canonical ([u < v]), lexicographically sorted and duplicate-free —
    the order {!edges} returns them in — validating that contract in
    one O(m) pass instead of re-sorting. Raises [Invalid_argument] if
    any edge is out of range, non-canonical or out of order. This is
    the fast path binary snapshot loads take (see [Rs_store]); the
    array is not retained. [~validate:false] (default [true]) skips
    the contract check — only for callers that constructed the array
    themselves; feeding it unchecked external input is undefined. *)

val patch : t -> added:(int * int) list -> removed:(int * int) list -> t
(** [patch g ~added ~removed] is [g] with the edges [removed] deleted
    and the edges [added] inserted. Both lists must be canonical
    ([u < v]), strictly lexicographically sorted, every [removed] edge
    present in [g] and every [added] edge absent — the shape
    [Rs_dynamic.Delta.effect] returns. One linear merge of the sorted
    edge array and one CSR fill: no sort, no polymorphic compare.
    Equal to [make] of the merged edge list, edge ids included. Raises
    [Invalid_argument] when the contract does not hold. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val neighbors : t -> int -> int array
(** [neighbors g u] is the sorted array of neighbors of [u]. The array
    is owned by the graph and must not be mutated. The per-vertex
    arrays are memoized on first access (domain-safely); hot loops
    should prefer {!iter_neighbors} or {!csr}, which never build them. *)

val degree : t -> int -> int

val max_degree : t -> int
(** Maximum degree, 0 for the empty graph. *)

val csr : t -> int array * int array
(** [csr g] is the raw [(offsets, packed_neighbors)] pair of the CSR
    layout: vertex [u]'s neighbors are
    [packed_neighbors.(offsets.(u) .. offsets.(u+1) - 1)], sorted
    increasing. Both arrays are owned by the graph and must not be
    mutated. Intended for allocation-free inner loops (BFS). *)

val csr_edge_ids : t -> int array
(** The canonical edge id of every packed neighbor, in lock-step with
    the second array of {!csr}: slot [i] of vertex [u]'s range holds
    the id of edge [u]–[nbr.(i)]. Owned by the graph; do not mutate.
    Lets per-edge state be keyed by id inside a CSR scan, with no
    {!edge_id} probe. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v] for every neighbor [v] of [u]
    in increasing order, without allocating. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** [fold_neighbors g u f acc] folds [f] over [u]'s neighbors in
    increasing order. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency (symmetric; false for [u = v] and
    out-of-range endpoints). Binary search over [u]'s sorted CSR
    range: [O(log deg u)], allocation-free. *)

val edge_id : t -> int -> int -> int
(** [edge_id g u v] is the canonical id of edge [uv].
    Raises [Not_found] if absent. *)

val edge : t -> int -> int * int
(** [edge g id] is the canonical [(u, v)] pair, [u < v], of edge [id]. *)

val edges : t -> (int * int) array
(** All edges in canonical order. Owned by the graph; do not mutate. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** [iter_edges f g] calls [f u v] with [u < v] for every edge. *)

val fold_edges : ('a -> int -> int -> 'a) -> 'a -> t -> 'a

val iter_vertices : (int -> unit) -> t -> unit

val fold_vertices : ('a -> int -> 'a) -> 'a -> t -> 'a

val induced : t -> int array -> t * int array
(** [induced g vs] is the sub-graph induced by the distinct vertex set
    [vs], with vertices renumbered [0..k-1] in the order of [vs];
    returns [(h, back)] where [back.(i)] is the original id of new
    vertex [i]. *)

val remove_vertex : t -> int -> t
(** [remove_vertex g u] deletes [u] and its incident edges, keeping the
    original numbering (vertex [u] becomes isolated). Used by
    fault-injection tests. *)

val union_edges : t -> (int * int) list -> t
(** [union_edges g es] is [g] with the extra edges added (same vertex
    set). *)

val equal : t -> t -> bool
(** Structural equality (same [n] and same edge set). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: [n], [m] and the edge list. *)
