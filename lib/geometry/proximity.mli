(** Classic proximity sub-graphs used for ad hoc topology control.

    These are the structures practitioners advertised before (and
    alongside) multipoint relays: geometric filters that keep a sparse,
    local sub-graph of the unit disk graph. They make instructive
    baselines for the routing experiment — sparse, yes, but with {e no
    remote-spanner guarantee}: their hop stretch over H_u is unbounded
    in general, which is exactly the gap remote-spanners close.

    All constructions filter the edges of a given geometric graph (the
    UDG), so the results are sub-graphs returned as edge sets. *)

open Rs_graph

val gabriel : Point.t array -> Graph.t -> Edge_set.t
(** Gabriel graph restricted to [g]'s edges: keep edge (u, v) iff no
    third point lies strictly inside the disk with diameter [uv]. *)

val relative_neighborhood : Point.t array -> Graph.t -> Edge_set.t
(** Relative neighborhood graph: keep (u, v) iff no third point [w]
    has [max(d(u,w), d(v,w)) < d(u,v)] (the "lune" is empty). A
    sub-graph of the Gabriel graph. *)

val yao : ?cones:int -> Point.t array -> Graph.t -> Edge_set.t
(** Yao graph (2-D): for each node, partition the plane into [cones]
    equal sectors (default 6) and keep the shortest incident edge per
    non-empty sector (in both directions, so the result is the
    symmetric closure). Connected whenever [g] is, for cones >= 6. *)
