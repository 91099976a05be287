open Rs_graph
module Obs = Rs_obs.Obs

type violation = { src : int; dst : int; d_g : int; d_h : int }

let pp_violation fmt v =
  Format.fprintf fmt "(%d -> %d: d_G=%d, d_Hu=%s)" v.src v.dst v.d_g
    (if v.d_h = max_int then "inf" else string_of_int v.d_h)

let violates ~alpha ~beta d_g d_h =
  d_h < 0 || float_of_int d_h > (alpha *. float_of_int d_g) +. beta +. 1e-9

(* The per-source kernel: both BFSs from [u] — d_G(u,.) over [g], and
   d_{H_u}(u,.) seeded with N_G(u) and expanded through [h_adj] — then
   [f v d_g d_h] for every v, in increasing order, with 2 <= d_g < inf
   (the pairs every guarantee speaks of); [d_h] is -1 when v is
   unreachable in H_u. *)
let scan_source sg sh g h_adj u f =
  Bfs.Scratch.run sg g u;
  Bfs.Scratch.run_augmented sh g h_adj u;
  for v = 0 to Graph.n g - 1 do
    let d_g = Bfs.Scratch.dist sg v in
    if d_g > 1 then f v d_g (Bfs.Scratch.dist sh v)
  done

(* The one stretch sweep: [scan_source] from every source in increasing
   order while [go ()], calling [f u v d_g d_h]. With [domains > 1]
   (and n >= 64) sources are fanned over domains by {!Sharded.drive}
   and [f] runs concurrently, in no particular order. *)
let sweep ?(domains = 1) ?(go = fun () -> true) g h f =
  let n = Graph.n g and h_adj = Edge_set.to_adjacency h in
  let worker claim =
    let sg = Bfs.Scratch.create () and sh = Bfs.Scratch.create () in
    let rec loop items =
      match claim () with
      | None -> items
      | Some (lo, hi) ->
          let u = ref lo in
          while go () && !u <= hi do
            scan_source sg sh g h_adj !u (f !u);
            incr u
          done;
          loop (items + (!u - lo))
    in
    loop 0
  in
  if domains <= 1 || n < 64 then begin
    let claimed = ref (n = 0) in
    ignore
      (worker (fun () ->
           if !claimed then None
           else begin
             claimed := true;
             Some (0, n - 1)
           end))
  end
  else
    Obs.with_span "parallel/is_remote_spanner" @@ fun () ->
    Sharded.drive ~n ~domains ~stop:(fun () -> not (go ())) worker

let remote_spanner_violations ?(max_violations = 10) g h ~alpha ~beta =
  let acc = ref [] and count = ref 0 in
  sweep ~go:(fun () -> !count < max_violations) g h (fun u v d_g d_h ->
      if !count < max_violations && violates ~alpha ~beta d_g d_h then begin
        acc := { src = u; dst = v; d_g; d_h = (if d_h < 0 then max_int else d_h) } :: !acc;
        incr count
      end);
  List.rev !acc

let is_remote_spanner ?domains g h ~alpha ~beta =
  (* a violation anywhere stops every domain at its next source *)
  let ok = Atomic.make true in
  sweep ?domains ~go:(fun () -> Atomic.get ok) g h (fun _ _ d_g d_h ->
      if violates ~alpha ~beta d_g d_h then Atomic.set ok false);
  Atomic.get ok

type histogram = {
  pairs : int;
  unreachable : int;
  exact : int;
  slack_counts : (int * int) list;
  mean_ratio : float;
}

let stretch_histogram g h =
  let pairs = ref 0 and unreachable = ref 0 and exact = ref 0 in
  let ratio_sum = ref 0.0 and reachable = ref 0 in
  let slack_tbl = Hashtbl.create 16 in
  sweep g h (fun _ _ d_g d_h ->
      incr pairs;
      if d_h < 0 then incr unreachable
      else begin
        incr reachable;
        let slack = d_h - d_g in
        if slack = 0 then incr exact;
        Hashtbl.replace slack_tbl slack
          (1 + Option.value ~default:0 (Hashtbl.find_opt slack_tbl slack));
        ratio_sum := !ratio_sum +. (float_of_int d_h /. float_of_int d_g)
      end);
  {
    pairs = !pairs;
    unreachable = !unreachable;
    exact = !exact;
    slack_counts =
      List.sort compare (Hashtbl.fold (fun s c acc -> (s, c) :: acc) slack_tbl []);
    mean_ratio = (if !reachable = 0 then 1.0 else !ratio_sum /. float_of_int !reachable);
  }

let worst_additive_slack g h ~alpha =
  let worst = ref neg_infinity in
  sweep g h (fun _ _ d_g d_h ->
      if d_h < 0 then worst := infinity
      else worst := Float.max !worst (float_of_int d_h -. (alpha *. float_of_int d_g)));
  !worst

let all_nonadjacent_pairs g =
  let acc = ref [] in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && not (Graph.mem_edge g s t) then acc := (s, t) :: !acc
    done
  done;
  List.rev !acc

(* The flow engine answers in H_s directly, over H's CSR with s's arcs
   read from G's row, so one [Edge_set.to_graph] serves every pair. *)
let generic_k_violations mode ~max_violations ~pairs g h ~alpha ~beta ~k =
  let pairs = match pairs with Some p -> p | None -> all_nonadjacent_pairs g in
  let hg = Edge_set.to_graph h in
  let acc = ref [] and count = ref 0 in
  List.iter
    (fun (s, t) ->
      if !count < max_violations && s <> t && not (Graph.mem_edge g s t) then begin
        let profile_g = Disjoint_paths.augmented_profile mode g g ~kmax:k s t in
        if Array.length profile_g > 0 then begin
          let profile_h = Disjoint_paths.augmented_profile mode g hg ~kmax:k s t in
          let k's = Array.length profile_g in
          let rec check k' =
            if k' <= k's && !count < max_violations then begin
              let dg = profile_g.(k' - 1) in
              let dh =
                if Array.length profile_h >= k' then profile_h.(k' - 1) else max_int
              in
              let bound = (alpha *. float_of_int dg) +. (float_of_int k' *. beta) in
              if dh = max_int || float_of_int dh > bound +. 1e-9 then begin
                acc := { src = s; dst = t; d_g = dg; d_h = dh } :: !acc;
                incr count
              end
              else check (k' + 1)
            end
          in
          check 1
        end
      end)
    pairs;
  List.rev !acc

let k_connecting_violations ?(max_violations = 10) ?pairs g h ~alpha ~beta ~k =
  generic_k_violations Disjoint_paths.Vertex ~max_violations ~pairs g h ~alpha ~beta ~k

let is_k_connecting ?pairs g h ~alpha ~beta ~k =
  k_connecting_violations ~max_violations:1 ?pairs g h ~alpha ~beta ~k = []

let edge_k_connecting_violations ?(max_violations = 10) ?pairs g h ~alpha ~beta ~k =
  generic_k_violations Disjoint_paths.Edge ~max_violations ~pairs g h ~alpha ~beta ~k

let is_edge_k_connecting ?pairs g h ~alpha ~beta ~k =
  edge_k_connecting_violations ~max_violations:1 ?pairs g h ~alpha ~beta ~k = []

let induces_dominating_trees g h ~r ~beta =
  let h_adj = Edge_set.to_adjacency h in
  let ok = ref true in
  Graph.iter_vertices
    (fun u ->
      if !ok then begin
        let du_g = Bfs.dist ~radius:r g u in
        let du_h = Bfs.dist_adj h_adj u in
        Graph.iter_vertices
          (fun v ->
            let r' = du_g.(v) in
            if !ok && r' >= 2 && r' <= r then begin
              let dominated =
                Array.exists
                  (fun x -> du_h.(x) >= 0 && du_h.(x) <= r' - 1 + beta)
                  (Graph.neighbors g v)
              in
              if not dominated then ok := false
            end)
          g
      end)
    g;
  !ok

let induces_k20_trees g h ~k =
  let ok = ref true in
  Graph.iter_vertices
    (fun u ->
      if !ok then begin
        let du_g = Bfs.dist ~radius:2 g u in
        Graph.iter_vertices
          (fun v ->
            if !ok && du_g.(v) = 2 then begin
              let common =
                Array.to_list (Graph.neighbors g v)
                |> List.filter (fun w -> Graph.mem_edge g u w)
              in
              let in_h = List.filter (fun w -> Edge_set.mem h u w) common in
              let covered =
                List.length in_h >= k || List.length in_h = List.length common
              in
              if not covered then ok := false
            end)
          g
      end)
    g;
  !ok
