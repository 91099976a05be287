(** Multicore stretch verification (OCaml 5 domains).

    Multicore construction lives in {!Sharded.build} [?domains]; this
    module keeps the parallel counterpart of the exhaustive oracle. *)

open Rs_graph

val is_remote_spanner :
  ?domains:int -> Graph.t -> Edge_set.t -> alpha:float -> beta:float -> bool
(** Parallel counterpart of {!Verify.is_remote_spanner}: the per-source
    BFS checks are independent, so sources are fanned over domains by
    {!Sharded.drive}. Same answer as the sequential oracle (asserted in
    tests); lets the harness verify stretch exhaustively on graphs
    several times larger. *)
