open Rs_graph

(* [hg] is H's CSR; the flow engine reads src's arcs from [g] *)
type t = { g : Graph.t; hg : Graph.t }

let make g h =
  if not (Graph.equal (Edge_set.host h) g) then
    invalid_arg "Multipath.make: edge set over a different graph";
  { g; hg = Edge_set.to_graph h }

let disjoint_routes t ~k ~src ~dst =
  if src = dst then invalid_arg "Multipath.disjoint_routes: src = dst";
  Disjoint_paths.augmented_min_sum_paths Vertex t.g t.hg ~k src dst

type failure_report = {
  trials : int;
  primary_hit : int;
  backup_survived : int;
  total_detour : int;
}

let failure_experiment rand t ~trials =
  let n = Graph.n t.g in
  let report = ref { trials = 0; primary_hit = 0; backup_survived = 0; total_detour = 0 } in
  let attempts = ref (20 * trials) in
  while !report.trials < trials && !attempts > 0 do
    decr attempts;
    let s = Rand.int rand n and d = Rand.int rand n in
    if s <> d && not (Graph.mem_edge t.g s d) then
      match disjoint_routes t ~k:2 ~src:s ~dst:d with
      | None -> ()
      | Some routes ->
          let routes =
            List.sort (fun a b -> compare (Path.length a) (Path.length b)) routes
          in
          (match routes with
          | [ primary; backup ] -> (
              match Path.internal primary with
              | [] -> () (* primary of length 1 impossible here, but stay safe *)
              | internals ->
                  let dead = List.nth internals (Rand.int rand (List.length internals)) in
                  let r = !report in
                  let survived = not (List.mem dead backup) in
                  report :=
                    {
                      trials = r.trials + 1;
                      primary_hit = r.primary_hit + 1;
                      backup_survived = r.backup_survived + (if survived then 1 else 0);
                      total_detour =
                        r.total_detour + (Path.length backup - Path.length primary);
                    })
          | _ -> ())
  done;
  !report
