(** Multipoint relays (OLSR) and their dominating-tree reading.

    The paper observes (Section 1.2) that OLSR's multipoint relays
    are exactly (2, 0)-dominating trees, that their union forms a
    (1, 0)-remote-spanner, and that the k-coverage extension equals
    k-connecting (2, 0)-dominating trees — whose k-connectivity
    guarantee had "never been proved" before Proposition 5.
    Experiment E10 verifies it with the flow checker.

    This module also simulates MPR flooding, the other use of relays
    in OLSR: a node retransmits a broadcast iff it was selected as
    relay by the neighbor it first heard the message from. *)

open Rs_graph

val select : Graph.t -> int -> int list
(** Greedy MPR set of [u]: minimal-ish set of neighbors covering the
    2-sphere: the children of the greedy (2,0)-dominating star
    [Dom_tree_k.gdy_k ~k:1], read off its flat pairs. Sorted. *)

val select_olsr : Graph.t -> int -> int list
(** The RFC 3626 heuristic: first take neighbors that are the sole
    cover of some 2-hop node, then greedy by residual coverage (ties
    by higher degree then smaller id). Also a valid (2,0)-dominating
    tree; usually slightly larger than {!select} is not guaranteed
    either way. Sorted. *)

val select_k_coverage : Graph.t -> k:int -> int -> int list
(** k-coverage MPRs: the children of the star [Dom_tree_k.gdy_k ~k].
    Sorted. *)

val is_valid_mpr : Graph.t -> int -> int list -> bool
(** Every strict 2-hop node of [u] has a neighbor among the relays. *)

val relay_union : Graph.t -> (Graph.t -> int -> int list) -> Edge_set.t
(** Union over all u of the star {u->relay}: the sub-graph a
    relay-based link-state protocol advertises. *)

type flood_result = {
  reached : bool array;
  retransmissions : int;  (** nodes that forwarded the packet *)
}

val flood : Graph.t -> relays:(int -> int list) -> src:int -> flood_result
(** MPR flooding from [src]: the source transmits; a node retransmits
    iff it is a relay of the node from which it first received the
    packet (BFS order, smallest-id first among same-round senders). *)

val blind_flood : Graph.t -> src:int -> flood_result
(** Classic flooding: every reached node retransmits once. *)

val flood_lossy :
  Rand.t -> Graph.t -> relays:(int -> int list) -> src:int -> loss:float -> flood_result
(** MPR flooding over lossy radio: each per-neighbor delivery fails
    independently with probability [loss]. A node retransmits iff it
    is a relay of {e some} node it received the packet from (any copy,
    not just the first — the RFC's duplicate-set behaviour). This is
    the experiment k-coverage MPRs were invented for ([4, 5]): with
    [relays = select_k_coverage ~k], a node at distance 2 has k relay
    paths, so a single loss no longer cuts it off. Use
    [relays = fun u -> Array.to_list (Graph.neighbors g u)] for blind
    flooding under the same loss model. *)
