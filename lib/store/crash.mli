(** Seeded crash-point injection for the durable store — the
    [lib/distributed/fault.ml] idea applied to the filesystem: instead
    of dropping messages, drop {e bytes}.

    {!run} builds a reference store (a seeded random connected graph
    plus random delta batches, with a mid-history snapshot and small
    WAL segments so history spans several files), remembers the exact
    topology at every sequence number, then enumerates crash sites and
    replays each one on a scratch copy of the directory:

    - the WAL tail torn mid-record and exactly at record boundaries
      (the post-write-pre-fsync crash: bytes handed to the kernel but
      never persisted);
    - a checksum-corrupting bit flip in the middle of an earlier
      segment (later segments must be dropped too — their records are
      unreachable past the gap);
    - a torn segment header;
    - the newest snapshot truncated mid-section, and bit-flipped;
    - an interrupted rename: the newest snapshot demoted to its [.tmp]
      name, as if the crash hit between write and rename.

    Every case must recover — with verification on — to {e exactly}
    the pre-crash state or to the information-theoretically best
    verified prefix (the harness computes which sequence number that
    is and asserts equality, graph and spanners both). An unmutated
    copy must additionally round-trip byte-identically: the snapshot
    encoding of the recovered state equals the encoding of the live
    state at the moment of the crash. *)

open Rs_dynamic

val pp_report : Format.formatter -> Harness.report -> unit
(** [crash sites: N (E exact recoveries, P verified prefixes)], the
    round-trip verdict, then one line per failure. The report's
    [exact] and [prefix] counts tally the two recovery regimes; its
    last scenario, [round-trip], is the unmutated copy. *)

val run :
  ?specs:Repair.spec list ->
  ?sites:int ->
  seed:int ->
  n:int ->
  batches:int ->
  dir:string ->
  unit ->
  Harness.report
(** [run ~seed ~n ~batches ~dir ()] drives the whole plan through
    {!Harness.run} (so [n] and [batches >= 2] are checked first) under
    [dir]: the base store lands in [dir/base], scratch copies in
    [dir/case-*] — removed when their case passes, kept for inspection
    when it fails. [?specs] defaults to one star family and one tree
    family ([Gdy_k {k = 1}; Mis {r = 2}]), so both snapshot encodings
    are exercised; [?sites] (default 4) scales the number of sampled
    torn-tail offsets. Deterministic in [seed]. *)
