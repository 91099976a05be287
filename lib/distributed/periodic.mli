(** Periodic asynchronous link-state operation and stabilization.

    Section 2.3 of the paper notes that Algorithm RemSpan "can be run
    as in practical link state routing protocols by regularly
    performing its four operations in an asynchronous fashion every
    period of time T"; after a topology change the spanner stabilizes
    "after a time period of T + 2F, where F is the duration of a
    flooding up to distance r - 1 + beta".

    This module simulates exactly that regime so experiment E15 can
    measure the stabilization time:

    - time advances in rounds; node [u] {e originates} a fresh
      advertisement of its current neighbor list every [period] rounds
      (staggered start at [u mod period]);
    - advertisements flood with TTL [radius], one hop per round, and
      are deduplicated by (origin, sequence number) — duplicated or
      reordered copies injected by a fault plan are absorbed by the
      same rule;
    - every node caches the freshest advertisement per origin (its own
      adjacency is always current — hello messages) and recomputes its
      dominating tree from the cached view whenever the cache changes;
    - cached entries expire after [expiry] rounds without refresh
      (soft state, as in OSPF/OLSR; default [2 * period]), which
      clears phantom edges left by removals near the collection
      horizon {e and} ages out the advertisements of crashed nodes.

    The observable is the union of the {e live} nodes' current trees,
    compared each round against the centralized construction on the
    {e current} graph.

    An optional {!Fault.plan} makes the run adversarial: advertisement
    transmissions can be dropped, duplicated or delayed, links can
    flap and nodes can crash and recover (a crashed node is silent —
    it neither originates, forwards, receives nor contributes its tree
    to the union; on recovery it resumes with its crash-time cache,
    whose stale entries age out by expiry). Faulty runs are
    reproducible bit-for-bit from the plan seed; omitting the plan
    leaves behaviour byte-identical to the fault-free protocol. *)

open Rs_graph

type event = {
  at : int;  (** round at which the change is applied *)
  add : (int * int) list;
  remove : (int * int) list;
}

type result = {
  converged_at : int option;
      (** first round >= {!field-quiet_at} after which the union
          matches the target in every remaining round of the horizon *)
  matched : bool array;  (** per-round match flag, length [horizon] *)
  messages : int;  (** advertisement transmissions delivered *)
  lost : int;  (** transmissions lost to faults (loss, link, crash) *)
  quiet_at : int;
      (** first round from which neither topology events nor faults
          interfere: max of the last event's [at] and
          [Fault.quiet_at] of the plan (0 with no faults; [max_int]
          when faults never cease — then [converged_at] is [None]) *)
  incremental_mismatches : int;
      (** rounds where the [?incremental] maintainer's spanner differed
          from the memoized from-scratch target (0 when the hook is
          absent — and expected 0 when present: the constructions are
          deterministic, so a correct repair reproduces the rebuild) *)
}

val simulate :
  ?trace:Rs_obs.Trace.sink ->
  ?faults:Fault.plan ->
  ?expiry:int ->
  ?incremental:(Graph.t -> (int * int) list) ->
  initial:Graph.t ->
  events:event list ->
  period:int ->
  radius:int ->
  horizon:int ->
  tree_of:(Graph.t -> int -> int array) ->
  unit ->
  result
(** [simulate ~initial ~events ~period ~radius ~horizon ~tree_of ()] runs
    the periodic protocol for [horizon] rounds. [tree_of] computes a
    node's dominating tree from an arbitrary (view) graph, as flat
    [(parent, child)] pairs ([Rs_core.Sharded.iter_trees]'s form) — pass e.g.
    [fun g u -> Rs_core.Dom_tree_k.gdy_k g ~k:1 u]... any construction
    whose radius requirement is at most [radius]. The target each
    round is the union of [tree_of] applied to the true current graph.
    Events must be sorted by [at] — checked on entry, raising
    [Invalid_argument] naming the offending indices; edges must
    reference valid vertices (removals of absent edges are ignored).
    [expiry] is the soft-state lifetime in rounds (default
    [2 * period]; must be >= 1).

    On convergence the stabilization lag ([converged_at - quiet_at])
    is recorded in the [periodic/convergence_lag] histogram.

    [?incremental] injects a maintained centralized spanner (pass
    [Rs_dynamic.Repair.incremental_target spec] — this module cannot
    depend on [rs_dynamic] itself, [rs_core] sits between them): the
    closure is called once per round with the current graph and must
    return its spanner as canonical pairs. Each epoch it is compared
    against the memoized from-scratch target; divergences are counted
    in [incremental_mismatches] and emitted as
    [incremental_mismatch {round}] trace events. The protocol itself
    is unaffected — this is an equivalence gate riding along the
    simulation.

    [?trace] streams JSONL events to the sink: [round_start],
    [originate {round, node, seq}], [expire {round, node, origin}],
    [round_end {round, messages, matched}], and — under faults —
    [drop {round, from, to, reason}], [dup {round, from, to}],
    [crash {round, node}], [recover {round, node}] — enough to replay
    the protocol's convergence behaviour offline (schema in
    docs/OBSERVABILITY.md). *)

val stabilization_lag : result -> int option
(** Rounds from {!field-quiet_at} to {!field-converged_at}; [None]
    when the run never (re)converged or faults never ceased. *)

val self_stabilizes : result -> bound:int -> bool
(** The executable form of the paper's [T + 2F] claim under adversity:
    did the union of live trees reconverge to the centralized target
    within [bound] rounds of the moment faults and topology changes
    ceased — and stay converged to the horizon? *)
