(** Scale-ready metrics registry: domain-sharded counters and quantile
    histograms, gauges, and a continuous profile of nested spans.

    The paper's headline claims are resource claims (constant rounds,
    [O(eps^-(p+1) n)] edges, counts within [2(1+log Delta)] of
    optimal); this module lets the library observe them from the
    inside instead of post-hoc through the bench harness — and stays
    cheap when many OCaml 5 domains hammer the same metric.

    {b Sharding.} Counters and histograms keep one cell per domain
    that ever touches them, reached through a single [Domain.DLS]
    lookup; the hot-path mutation is a plain unshared write — no CAS,
    no mutex, no cross-core cache-line ping-pong. Readers ({!counter_value},
    {!quantile}, {!to_json}, …) merge the cells lazily under the
    registry mutex. While writer domains are live a merged read may be
    slightly stale (plain word-sized fields cannot tear); once the
    writers are joined, merged totals are exact. Per-domain cell slabs
    are recycled when a domain exits, so memory is bounded by the peak
    number of {e concurrent} domains.

    {b Cost model.} Instrumentation is {e disabled by default}: every
    mutation first reads a single atomic flag and returns immediately
    when it is off. Enabled, a counter bump is a DLS lookup plus one
    add; a histogram observation additionally takes one [log]. The
    obs-enabled hot path is gated in CI to within 5% of the
    obs-disabled one (bench/hotpath.ml [obs/*] rows). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Master switch, off at startup. *)

(** {1 Counters} — monotone event counts (e.g. BFS expansions). *)

type counter

val counter : string -> counter
(** Find-or-register by name. Names are slash-separated paths, e.g.
    ["bfs/expansions"]. Handles are stable across {!reset}. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Merged over every domain's cell. *)

(** {1 Gauges} — last-write-wins instantaneous values (edge counts). *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} — distributions with quantiles.

    Count/sum/min/max are exact. Positive observations are bucketed
    log-uniformly (DDSketch-style, base [1.04]), so any quantile is
    answered within [(gamma-1)/(gamma+1) < 2%] relative error; zero
    and negative observations occupy a dedicated bucket rendered with
    [le = 0]. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_min : histogram -> float
val histogram_max : histogram -> float
(** Exact observed extremes; [0.0] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) of
    everything observed so far, within 2% relative error, clamped to
    the exact [min, max] envelope. [0.0] when empty. *)

val time_ms : histogram -> (unit -> 'a) -> 'a
(** [time_ms h f] runs [f] and observes its wall time in milliseconds
    — the service layer's latency-histogram idiom. Exceptions
    propagate after the observation; when disabled this is exactly
    [f ()]. *)

(** {1 Spans} — the continuous profile.

    [with_span] maintains a {e call tree}: a span opened inside
    another becomes a child node, and each node accumulates
    [(count, total, max)] wall time plus GC deltas (minor/major
    allocated words and compactions, sampled on top-level spans where
    the [Gc.quick_stat] cost amortizes). The tree being written is
    domain-local and the open-span stack is per thread, so span
    entry/exit takes no lock (only a node's first creation does), and
    systhreads sharing a domain never nest under each other's spans;
    {!profile} merges every domain's forest by node name. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span on this thread.
    When disabled this is exactly [f ()]. Exceptions propagate; the
    span still closes, and the pop restores the exact pre-push stack,
    so a raise can never leak a stack entry — even from a nested
    span. *)

val span_stats : string -> (int * float) option
(** [(count, total_seconds)] recorded under a slash-joined span path
    (e.g. ["distributed/run_with/collect"]), merged over domains. *)

type profile_node = {
  p_name : string;
  p_count : int;
  p_total_s : float;
  p_self_s : float;  (** total minus children's totals, clamped at 0 *)
  p_max_s : float;
  p_minor_words : float;
  p_major_words : float;
  p_compactions : int;
  p_children : profile_node list;
}

val profile : unit -> profile_node list
(** The merged call forest, children sorted by name. *)

val folded : unit -> string
(** The profile as folded stacks — one line per node,
    ["root;child;leaf <self time in microseconds>"] — directly
    consumable by flamegraph.pl and speedscope. *)

(** {1 Registry} *)

val reset : unit -> unit
(** Zero every metric (handles stay valid); drop the profile. Call
    while metric writers are quiescent. *)

val to_json : unit -> Json.t
(** Snapshot: [{"version": 2, "counters": {..}, "gauges": {..},
    "histograms": {..}, "spans": {..}, "profile": [..]}]. Histograms
    are [{"count", "sum", "min", "max", "p50", "p90", "p99",
    "buckets": [{"le", "count"}..]}]; spans are the backward-compatible
    flat [{"count", "total_s", "max_s"}] paths; profile nodes are
    [{"name", "count", "total_s", "self_s", "max_s",
    "gc": {"minor_words", "major_words", "compactions"},
    "children": [..]}]. *)

val to_table : unit -> string
(** Human-readable dump: counters, gauges, histograms (with p50/p99)
    and the indented profile tree. *)

(** {1 Periodic snapshots} — JSONL registry deltas for offline rate
    computation ([rspan ... --stats-every]). *)

type snapshot

val snapshot : unit -> snapshot
(** Capture counter values, gauge values and histogram (count, sum)
    moments, with a timestamp. *)

val delta_json : ?prev:snapshot -> snapshot -> Json.t
(** One JSONL record: [{"ts", "dt", "counters": {name: delta},
    "gauges": {name: value}, "histograms": {name: {"count": delta,
    "sum": delta}}}], listing only entries that changed since [prev]
    (all non-zero entries when [prev] is omitted). *)

val now : unit -> float
(** The clock used for spans (seconds; [Unix.gettimeofday]). Exposed
    so other layers time with the same base. *)
