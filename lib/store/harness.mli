(** The seeded scenario runner shared by the fault harnesses
    ({!Crash}, [Rs_serve.Chaos], [Rs_net.Net_chaos]) and the flat
    directory helpers the store itself uses.

    A harness is a list of named scenarios built from one seeded
    {!Rs_graph.Rand.t}; each scenario either returns named tallies
    (summed into the report) or raises, and a raise becomes a
    {!failure} naming the scenario. What a scenario gates its end
    state on is {!Rs_dynamic.Repair.check}. *)

open Rs_graph
open Rs_dynamic

(** {1 Flat directories} *)

val mkdir_p : string -> unit
val rm_rf : string -> unit
(** Remove a directory of plain files (store directories are flat). *)

val copy_dir : string -> string -> unit
(** [copy_dir src dst] replaces [dst] with a file-by-file copy of the
    flat directory [src]. *)

val truncate_file : string -> int -> unit

val flip_byte : string -> int -> unit
(** Corrupt one byte of a file in place. *)

(** {1 Random churn} *)

val random_op : Rand.t -> Graph.t -> Delta.op
(** One op of the harness mix against [g]: 45% add, 35% remove, 10%
    node down, 10% node up with 1-3 links. Needs [Graph.n g >= 2]. *)

val random_delta : Rand.t -> Graph.t -> Delta.t
(** 1-3 random ops, redrawn (up to 16 times) while their net effect
    on [g] is empty. *)

val wait_until : ?timeout:float -> what:string -> (unit -> bool) -> unit
(** Poll [pred] every 2 ms; raises [Failure "timed out waiting for
    <what>"] after [timeout] seconds (default 20). *)

(** {1 The runner} *)

type failure = { scenario : string; reason : string }

type report = {
  scenarios : int;  (** scenarios run *)
  counts : (string * int) list;  (** every tally the scenarios returned; see {!count} *)
  failures : failure list;  (** empty on success, in run order *)
}

val count : report -> string -> int
(** A named tally summed over the scenarios; 0 when none reported it. *)

val ok : report -> bool
(** At least one scenario ran and none failed. *)

val pp_failures : Format.formatter -> report -> unit
(** One [@,FAIL <scenario>: <reason>] line per failure, for the end of
    a suite's vertical report box. *)

val run :
  suite:string ->
  min_n:int ->
  min_batches:int ->
  ?only:string ->
  seed:int ->
  n:int ->
  batches:int ->
  dir:string ->
  (Rand.t -> (string * (unit -> (string * int) list)) list) ->
  report
(** [run ~suite ~min_n ~min_batches ~seed ~n ~batches ~dir plan] checks
    [n >= min_n] and [batches >= min_batches] — raising
    [Invalid_argument] with a one-line message prefixed by [suite]
    before anything touches the disk — then creates [dir], builds the
    scenarios with [plan] from one generator seeded with [seed], and
    runs them in order; only the one named [?only], if given
    ([Invalid_argument] when no scenario has that name). A scenario
    that raises is recorded as a failure and the next one runs.
    [min_n] is the smallest vertex count every scenario of the suite
    passes with, never below 2 ({!random_op} needs two vertices). *)
