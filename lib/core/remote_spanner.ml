open Rs_graph
module Sim = Rs_distributed.Sim
module Obs = Rs_obs.Obs

let g_spanner_edges = Obs.gauge "core/spanner_edges"

let r_of_eps eps =
  if eps <= 0.0 || eps > 1.0 then invalid_arg "Remote_spanner.r_of_eps: need 0 < eps <= 1";
  int_of_float (Float.ceil (1.0 /. eps)) + 1

(* Single-domain instances of the batched builder (see
   docs/PERFORMANCE.md, "Scaling"). Each records a span and the
   result's edge count, so [rspan profile] can attribute time and size
   per construction. *)
let build name strat g =
  Obs.with_span ("build/" ^ name) (fun () ->
      let h = Sharded.build ~domains:1 g strat in
      Obs.set_gauge g_spanner_edges (float_of_int (Edge_set.cardinal h));
      h)

let rem_span g ~r ~beta = build "rem_span" (Sharded.Gdy { r; beta }) g
let low_stretch g ~eps = build "low_stretch" (Sharded.Mis { r = r_of_eps eps }) g
let exact_distance g = build "exact_distance" (Sharded.Gdy_k { k = 1 }) g
let k_connecting g ~k = build "k_connecting" (Sharded.Gdy_k { k }) g
let k_connecting_mis g ~k = build "k_connecting_mis" (Sharded.Mis_k { k }) g

let two_connecting g = k_connecting_mis g ~k:2

module Distributed = struct
  type report = {
    spanner : Edge_set.t;
    collect_stats : Sim.stats;
    flood_stats : Sim.stats;
    rounds_total : int;
  }

  (* Rebuild each node's view as a standalone graph. Views keep
     original vertex order, so deterministic tie-breaking matches the
     centralized computation vertex for vertex. *)
  let local_view view_edges =
    let verts = Hashtbl.create 64 in
    Array.iter
      (fun (a, b, _) ->
        Hashtbl.replace verts a ();
        Hashtbl.replace verts b ())
      view_edges;
    let vs = Hashtbl.fold (fun v () acc -> v :: acc) verts [] in
    let vs = Array.of_list (List.sort compare vs) in
    let fwd = Hashtbl.create (Array.length vs) in
    Array.iteri (fun i v -> Hashtbl.replace fwd v i) vs;
    let edges =
      Array.to_list view_edges
      |> List.map (fun (a, b, _) -> (Hashtbl.find fwd a, Hashtbl.find fwd b))
    in
    (Graph.make ~n:(Array.length vs) edges, vs, fwd)

  (* Phase 3 of Algorithm RemSpan: flood each node's tree (as an edge
     list) [radius] hops, so every node learns the spanner edges in its
     vicinity; we only keep its traffic statistics. *)
  let flood_trees g trees ~radius =
    if radius = 0 then Sim.zero_stats
    else begin
      let payload_of u = List.length (Tree.edges trees.(u)) in
      let proto =
        {
          Sim.init =
            (fun u ->
              let sends =
                Array.to_list
                  (Array.map (fun v -> (v, (u, payload_of u, radius))) (Graph.neighbors g u))
              in
              ((Hashtbl.create 16 : (int, unit) Hashtbl.t), sends));
          step =
            (fun u seen ~inbox ->
              let sends = ref [] in
              List.iter
                (fun (_, (origin, size, ttl)) ->
                  if (not (Hashtbl.mem seen origin)) && origin <> u then begin
                    Hashtbl.replace seen origin ();
                    if ttl > 1 then
                      Array.iter
                        (fun v -> sends := (v, (origin, size, ttl - 1)) :: !sends)
                        (Graph.neighbors g u)
                  end)
                inbox;
              (seen, !sends));
          halted = (fun _ -> true);
          msg_size = (fun (_, size, _) -> size);
        }
      in
      let _, stats = Sim.run g proto ~max_rounds:(radius + 1) in
      stats
    end

  let run_with g ~radius tree_of_view =
    Obs.with_span "distributed/run_with" @@ fun () ->
    let views, collect_stats =
      Obs.with_span "collect" (fun () -> Sim.collect_neighborhoods g ~radius)
    in
    let n = Graph.n g in
    let trees = Array.make n (Tree.create ~n ~root:0) in
    Obs.with_span "local_trees" (fun () ->
        for u = 0 to n - 1 do
          if Graph.degree g u = 0 then trees.(u) <- Tree.create ~n ~root:u
          else begin
            let local, back, fwd = local_view views.(u) in
            let t_local = tree_of_view local (Hashtbl.find fwd u) in
            let t = Tree.create ~n ~root:u in
            (* re-add edges shallow-first so parents always precede children *)
            let by_depth =
              List.sort
                (fun (p1, _) (p2, _) ->
                  compare (Tree.depth t_local p1, p1) (Tree.depth t_local p2, p2))
                (Tree.edges t_local)
            in
            List.iter
              (fun (p, c) -> Tree.add_edge t ~parent:back.(p) ~child:back.(c))
              by_depth;
            trees.(u) <- t
          end
        done);
    let spanner = Edge_set.create g in
    Array.iter (fun t -> Tree.add_to spanner t) trees;
    let flood_stats = Obs.with_span "flood" (fun () -> flood_trees g trees ~radius) in
    {
      spanner;
      collect_stats;
      flood_stats;
      (* one round of hello (neighbor discovery) + 2*radius flooding:
         the paper's 2r - 1 + 2*beta with radius = r - 1 + beta. *)
      rounds_total = 1 + collect_stats.Sim.rounds + flood_stats.Sim.rounds;
    }

  (* one scratch per run: local views vary in size, the scratch grows
     to the largest and is reused for every node's view *)
  let rem_span g ~r ~beta =
    let scratch = Bfs.Scratch.create () in
    run_with g ~radius:(r - 1 + beta) (fun local u -> Dom_tree.gdy ~scratch local ~r ~beta u)

  let k_connecting g ~k =
    let scratch = Bfs.Scratch.create () in
    run_with g ~radius:1 (fun local u -> Dom_tree_k.gdy_k ~scratch local ~k u)

  let two_connecting g =
    let scratch = Bfs.Scratch.create () in
    run_with g ~radius:2 (fun local u -> Dom_tree_k.mis_k ~scratch local ~k:2 u)
end
