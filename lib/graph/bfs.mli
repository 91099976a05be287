(** Breadth-first search and distance utilities.

    Distances use [-1] for "unreachable". Traversals run directly over
    the graph's CSR layout ({!Graph.csr}) — nothing rebuilds an
    adjacency structure per call. The array-returning functions below
    allocate only their result; the underlying queue/distance/visited
    state lives in a domain-local {!Scratch.t} that is reused across
    calls. Algorithms that need many traversals (one per node) should
    hold their own {!Scratch.t} and use the in-place API — reuse then
    costs O(touched) per run, not O(n). A few variants operate on raw
    adjacency arrays ([int array array]) so they apply to materialized
    sub-graphs ({!Edge_set.to_adjacency}).

    See docs/PERFORMANCE.md for the scratch-reuse contract. *)

val record_traversal : int -> unit
(** [record_traversal expanded] ticks the [bfs/runs] counter, adds
    [expanded] to [bfs/expansions] and observes [bfs/visited] — the
    bookkeeping every traversal in this module performs. Exposed so
    alternative engines ({!Msbfs}) producing the same logical
    traversals keep the metrics contract. *)

(** Growable generation-stamped vertex sets: [clear] is O(1), [set] and
    [mem] are O(1). For algorithms layered on a traversal that need a
    reusable "seen/dead" set without O(n) clearing. *)
module Marks : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val set : t -> int -> unit
  val mem : t -> int -> bool
end

(** Reusable BFS state. A [Scratch.t] may be reused across graphs of
    any size (it grows, never shrinks) but must not be shared between
    domains or used re-entrantly: one traversal at a time, and the
    accessors below read the {e most recent} run only. The multicore
    stretch sweep ([Verify.is_remote_spanner ?domains]) keeps two per
    domain; sequential constructions keep one per entry point. *)
module Scratch : sig
  type t

  val create : unit -> t

  val run : ?radius:int -> t -> Graph.t -> int -> unit
  (** [run s g src] performs one BFS from [src], computing distances
      and canonical parents in a single traversal. The parent of [v]
      is its {e smallest-id} neighbor at distance [d(v) - 1] — a
      function of the graph alone, so every engine (including the
      batched {!Msbfs}) produces identical trees. With [~radius],
      exploration stops at that depth. Records one [bfs/runs] tick. *)

  val run_adj : ?radius:int -> t -> int array array -> int -> unit
  (** Same over a raw adjacency structure. *)

  val run_augmented : t -> Graph.t -> int array array -> int -> unit
  (** In-place version of {!augmented_dist}: distances [d_{H_u}(u, ·)]
      where the BFS is seeded with [N_G(src)] at distance 1 and expands
      through [h_adj] alone. The source itself is reported reached at
      distance 0 but does not appear in the visit order. *)

  val reached : t -> int -> bool
  (** Was this vertex reached by the most recent run? *)

  val dist : t -> int -> int
  (** Distance from the last run's source; [-1] if unreached. *)

  val parent : t -> int -> int
  (** BFS parent from the last run ([parent s src = src]); [-1] if
      unreached. *)

  val visited_count : t -> int
  (** Number of vertices enqueued by the last run. *)

  val visited : t -> int -> int
  (** [visited s i] is the [i]-th vertex in visit order,
      [0 <= i < visited_count s]. *)

  val iter_visited : t -> (int -> unit) -> unit
  (** Iterate the last run's vertices in visit order (increasing
      distance; within a level, discovery order). *)

  val marks : t -> Marks.t
  (** A general-purpose {!Marks.t} co-located with the scratch for the
      algorithm running on top of it. BFS itself never touches it. *)

  val tree : t -> Marks.t
  (** A second such set, distinct from {!marks}: the members of the
      tree a construction grows over the last run (the per-root
      dominating-tree builders use it), so tree-building costs
      O(ball) per root, never O(n). *)
end

val dist_adj : ?radius:int -> int array array -> int -> int array
(** [dist_adj adj src] is the array of BFS distances from [src] over
    the adjacency structure [adj]. With [~radius], exploration stops at
    that depth (farther vertices read [-1]). *)

val dist : ?radius:int -> Graph.t -> int -> int array
(** BFS distances in a graph. Allocates the result array only. *)

val dist_pair : ?radius:int -> Graph.t -> int -> int -> int
(** [dist_pair g u v] is [d_G(u, v)], [-1] if disconnected. Early-exits
    when [v] is reached. With [~radius], gives up ([-1]) beyond that
    depth. Records a [bfs/runs] tick even on the [u = v] early return,
    so traversal counts stay consistent. *)

val parents_adj : ?radius:int -> int array array -> int -> int array
(** BFS parent array from [src]: [parents.(src) = src], [-1] for
    unreached vertices; otherwise a neighbor one step closer to [src].
    The neighbor of smallest index is chosen, making the BFS tree
    deterministic. *)

val parents : ?radius:int -> Graph.t -> int -> int array

val ball : Graph.t -> int -> int -> int array
(** [ball g u r] = vertices at distance <= r from [u] (including [u]),
    in increasing distance order (ties by vertex id). *)

val sphere : Graph.t -> int -> int -> int array
(** [sphere g u r] = vertices at distance exactly [r] from [u], in
    increasing id order. *)

val ecc : Graph.t -> int -> int
(** Eccentricity of a vertex within its component. *)

val diameter : Graph.t -> int
(** Exact diameter (max eccentricity over the largest structure); [-1]
    when the graph is disconnected, 0 for graphs with <= 1 vertex. *)

val augmented_dist : Graph.t -> int array array -> int -> int array
(** [augmented_dist g h_adj u] computes the distances [d_{H_u}(u, ·)]
    where [H_u] is the sub-graph with adjacency [h_adj] augmented by all
    edges between [u] and its neighbors in [g]. A simple path from [u]
    uses at most one edge incident to [u], so seeding the BFS with
    [N_G(u)] at distance 1 and expanding through [h_adj] alone is exact.
    This is the distance notion in the remote-spanner definition. *)
