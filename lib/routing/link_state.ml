open Rs_graph

type t = { g : Graph.t; spanner : Graph.t }

let make g h =
  let host = Edge_set.host h in
  if not (host == g || Graph.equal host g) then
    invalid_arg "Link_state.make: edge set over a different graph";
  { g; spanner = Edge_set.to_graph h }

let graph t = t.g
let spanner t = t.spanner

(* One BFS from the destination over H serves every hop of a route:
   d_{H_c}(c, dst) = 1 + min over w in N_G(c) of d_H(w, dst), and the
   minimizing neighbors are the same (see the .mli). Same contract as
   Bfs's own domain-local scratch: one traversal at a time. *)
let dls_scratch = Domain.DLS.new_key Bfs.Scratch.create

let bfs_from t dst =
  let s = Domain.DLS.get dls_scratch in
  Bfs.Scratch.run s t.spanner dst;
  s

(* The G-neighbor of [c] closest to the last run's source in H, the
   smallest id on ties; -1 when none is reached. *)
let closest s g c =
  let off, nbr = Graph.csr g in
  let best = ref (-1) and best_d = ref max_int in
  for i = off.(c) to off.(c + 1) - 1 do
    let w = nbr.(i) in
    let d = Bfs.Scratch.dist s w in
    if d >= 0 && d < !best_d then begin
      best := w;
      best_d := d
    end
  done;
  !best

let next_hop t ~src ~dst =
  if src = dst then None
  else
    let w = closest (bfs_from t dst) t.g src in
    if w < 0 then None else Some w

(* Greedy forwarding from [src] over the last run's distances to [dst].
   Past the first hop the distance strictly drops, so the hop limit
   never triggers; it keeps the contract's bound explicit. *)
let forward s g ~src ~dst =
  let limit = Graph.n g in
  let rec go c acc hops =
    if c = dst then Some (List.rev (c :: acc))
    else if hops > limit then None
    else
      let w = closest s g c in
      if w < 0 then None else go w (c :: acc) (hops + 1)
  in
  go src [] 0

let route t ~src ~dst =
  if src = dst then Some [ src ] else forward (bfs_from t dst) t.g ~src ~dst

type stretch_report = {
  pairs : int;
  delivered : int;
  worst_mult : float;
  worst_add : int;
  mean_mult : float;
  hops_total : int;
}

let measure_stretch ?pairs t =
  let in_g = Bfs.Scratch.create () and in_h = Bfs.Scratch.create () in
  let last = ref (-1) in
  let pairs_count = ref 0
  and delivered = ref 0
  and worst_mult = ref 0.0
  and worst_add = ref 0
  and mult_sum = ref 0.0
  and hops_total = ref 0 in
  (* a run of pairs with one destination shares its two BFS runs *)
  let measure s d =
    if d <> !last then begin
      Bfs.Scratch.run in_g t.g d;
      Bfs.Scratch.run in_h t.spanner d;
      last := d
    end;
    let dg = Bfs.Scratch.dist in_g s in
    if dg > 0 then begin
      incr pairs_count;
      match forward in_h t.g ~src:s ~dst:d with
      | None -> ()
      | Some p ->
          incr delivered;
          let len = Path.length p in
          hops_total := !hops_total + len;
          let mult = float_of_int len /. float_of_int dg in
          worst_mult := Float.max !worst_mult mult;
          worst_add := max !worst_add (len - dg);
          mult_sum := !mult_sum +. mult
    end
  in
  (match pairs with
  | Some p -> List.iter (fun (s, d) -> measure s d) p
  | None ->
      let n = Graph.n t.g in
      for d = 0 to n - 1 do
        for s = 0 to n - 1 do
          if s <> d then measure s d
        done
      done);
  {
    pairs = !pairs_count;
    delivered = !delivered;
    worst_mult = !worst_mult;
    worst_add = !worst_add;
    mean_mult = (if !delivered = 0 then 0.0 else !mult_sum /. float_of_int !delivered);
    hops_total = !hops_total;
  }

let advertisement_size t = 2 * Graph.m t.spanner
