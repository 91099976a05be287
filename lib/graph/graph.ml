(* Flat CSR core: [off] has n+1 offsets into [nbr], which packs every
   vertex's sorted neighbor list; [nbr_eid] carries the canonical edge
   id in lock-step with [nbr]. Adjacency queries are cache-friendly
   array scans and edge probes are binary searches — no hash tables on
   the hot path. [adj] keeps the historical per-vertex arrays alive for
   the [neighbors] accessor; it is built on first demand because it
   duplicates [nbr] (at n = 10^6 the copies cost hundreds of MB) and
   the hot paths all run over the CSR directly. The memoization is an
   [Atomic] publish rather than [Lazy.t] because parallel constructions
   probe [neighbors] from several domains and [Lazy.force] is not
   domain-safe (concurrent force can raise [Lazy.Undefined]). *)
type t = {
  n : int;
  off : int array; (* length n+1 *)
  nbr : int array; (* length 2m, sorted within each vertex's range *)
  nbr_eid : int array; (* edge id of nbr.(i), aligned with nbr *)
  adj : int array array option Atomic.t;
  edges : (int * int) array;
}

let canonical u v = if u < v then (u, v) else (v, u)

let cmp_edge (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

(* CSR fill from an owned, canonical ([u < v]), lex-sorted, duplicate-free
   edge array. Shared by the generic [build] path (which sorts and
   dedups first), [of_canonical] (whose input is validated to already
   be in this form, so a binary snapshot load pays no sort) and
   [patch]. Lex order makes every row come out sorted with no sort:
   vertex [w] receives its smaller neighbors first (edges [(u, w)],
   by increasing [u]), then its larger ones (edges [(w, v)], by
   increasing [v]). *)
let fill_csr n edges =
  let m = Array.length edges in
  let off = Array.make (n + 1) 0 in
  for id = 0 to m - 1 do
    let u, v = edges.(id) in
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + off.(u + 1)
  done;
  let nbr = Array.make (2 * m) 0 in
  let nbr_eid = Array.make (2 * m) 0 in
  let fill = Array.sub off 0 (max n 1) in
  for id = 0 to m - 1 do
    let u, v = edges.(id) in
    let i = fill.(u) and j = fill.(v) in
    nbr.(i) <- v;
    nbr_eid.(i) <- id;
    fill.(u) <- i + 1;
    nbr.(j) <- u;
    nbr_eid.(j) <- id;
    fill.(v) <- j + 1
  done;
  { n; off; nbr; nbr_eid; adj = Atomic.make None; edges }

let build n edge_list =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.make: endpoint out of range (%d,%d)" u v);
      if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u))
    edge_list;
  (* canonicalize, sort lexicographically, drop duplicates *)
  let raw = Array.of_list (List.map (fun (u, v) -> canonical u v) edge_list) in
  Array.sort cmp_edge raw;
  let m =
    let count = ref 0 in
    Array.iteri (fun i e -> if i = 0 || cmp_edge raw.(i - 1) e <> 0 then incr count) raw;
    !count
  in
  let edges = Array.make m (0, 0) in
  let j = ref 0 in
  Array.iteri
    (fun i e ->
      if i = 0 || cmp_edge raw.(i - 1) e <> 0 then begin
        edges.(!j) <- e;
        incr j
      end)
    raw;
  fill_csr n edges

let make ~n edges =
  if n < 0 then invalid_arg "Graph.make: negative n";
  build n edges

let of_arrays ~n edges = make ~n (Array.to_list edges)

let of_canonical ?(validate = true) ~n edges =
  if n < 0 then invalid_arg "Graph.of_canonical: negative n";
  if validate then begin
    let m = Array.length edges in
    for i = 0 to m - 1 do
      let u, v = edges.(i) in
      if u < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.of_canonical: endpoint out of range (%d,%d)" u v);
      if u >= v then
        invalid_arg (Printf.sprintf "Graph.of_canonical: edge (%d,%d) not canonical" u v);
      if i > 0 && cmp_edge edges.(i - 1) (u, v) >= 0 then
        invalid_arg
          (Printf.sprintf "Graph.of_canonical: edges not strictly sorted at (%d,%d)" u v)
    done
  end;
  (* [u < v < n] plus strict lex order is the full [make] contract:
     in-range, no self-loops, no duplicates — one O(m) pass instead of
     a sort, which is what makes the binary snapshot load fast.
     [~validate:false] skips the check for callers that constructed
     the array themselves (sharded induced sub-graphs, hot loaders). *)
  fill_csr n (Array.copy edges)

(* One merge of the sorted edge array against the two sorted change
   lists; the edge tuples that survive are shared, not copied. The
   contract is checked in passing: an out-of-order entry, a removal of
   an absent edge or an addition of a present one would otherwise
   produce a graph with duplicate or missing ids. *)
let patch g ~added ~removed =
  let bad fmt = Printf.ksprintf invalid_arg ("Graph.patch: " ^^ fmt) in
  let rec check_sorted = function
    | a :: (b :: _ as rest) ->
        if cmp_edge a b >= 0 then bad "changes not strictly sorted at (%d,%d)" (fst b) (snd b);
        check_sorted rest
    | _ -> ()
  in
  check_sorted added;
  check_sorted removed;
  List.iter
    (fun (u, v) ->
      if u < 0 || v >= g.n || u >= v then bad "edge (%d,%d) not canonical or out of range" u v)
    added;
  let m = Array.length g.edges in
  let m' = m - List.length removed + List.length added in
  let edges = Array.make m' (0, 0) in
  let j = ref 0 in
  let emit e =
    edges.(!j) <- e;
    incr j
  in
  let rec merge i added removed =
    if i < m then begin
      let e = g.edges.(i) in
      match (added, removed) with
      | a :: added', _ when cmp_edge a e < 0 ->
          emit a;
          merge i added' removed
      | a :: _, _ when cmp_edge a e = 0 -> bad "edge (%d,%d) already present" (fst a) (snd a)
      | _, r :: removed' when cmp_edge r e = 0 -> merge (i + 1) added removed'
      | _, r :: _ when cmp_edge r e < 0 -> bad "edge (%d,%d) absent" (fst r) (snd r)
      | _ ->
          emit e;
          merge (i + 1) added removed
    end
    else begin
      (match removed with (u, v) :: _ -> bad "edge (%d,%d) absent" u v | [] -> ());
      List.iter emit added
    end
  in
  merge 0 added removed;
  fill_csr g.n edges

let n g = g.n
let m g = Array.length g.edges
(* Once published the adjacency never changes; if two domains race on
   the first access both build a copy and CAS picks the winner — the
   loser's copy is garbage, which is safe, just wasted work. The
   parallel constructions read the CSR and never force it. *)
let adjacency g =
  match Atomic.get g.adj with
  | Some a -> a
  | None ->
      let a =
        Array.init g.n (fun u -> Array.sub g.nbr g.off.(u) (g.off.(u + 1) - g.off.(u)))
      in
      if Atomic.compare_and_set g.adj None (Some a) then a
      else Option.get (Atomic.get g.adj)

let neighbors g u = (adjacency g).(u)
let degree g u = g.off.(u + 1) - g.off.(u)

let csr g = (g.off, g.nbr)
let csr_edge_ids g = g.nbr_eid

let iter_neighbors g u f =
  let nbr = g.nbr in
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    f nbr.(i)
  done

let fold_neighbors g u f acc =
  let nbr = g.nbr in
  let acc = ref acc in
  for i = g.off.(u) to g.off.(u + 1) - 1 do
    acc := f !acc nbr.(i)
  done;
  !acc

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    best := max !best (degree g u)
  done;
  !best

(* binary search for [v] in [u]'s CSR range; -1 when absent *)
let nbr_slot g u v =
  let lo = ref g.off.(u) and hi = ref (g.off.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.nbr.(mid) in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge g u v = u <> v && u >= 0 && u < g.n && v >= 0 && v < g.n && nbr_slot g u v >= 0

let edge_id g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then raise Not_found;
  let slot = nbr_slot g u v in
  if slot < 0 then raise Not_found else g.nbr_eid.(slot)

let edge g id = g.edges.(id)
let edges g = g.edges

let iter_edges f g = Array.iter (fun (u, v) -> f u v) g.edges

let fold_edges f acc g = Array.fold_left (fun acc (u, v) -> f acc u v) acc g.edges

let iter_vertices f g =
  for u = 0 to g.n - 1 do
    f u
  done

let fold_vertices f acc g =
  let acc = ref acc in
  for u = 0 to g.n - 1 do
    acc := f !acc u
  done;
  !acc

let induced g vs =
  let k = Array.length vs in
  let fwd = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem fwd v then invalid_arg "Graph.induced: duplicate vertex";
      Hashtbl.replace fwd v i)
    vs;
  let es = ref [] in
  Array.iteri
    (fun i v ->
      iter_neighbors g v (fun w ->
          match Hashtbl.find_opt fwd w with
          | Some j when i < j -> es := (i, j) :: !es
          | _ -> ()))
    vs;
  (make ~n:k !es, Array.copy vs)

let remove_vertex g u =
  let es =
    fold_edges (fun acc a b -> if a = u || b = u then acc else (a, b) :: acc) [] g
  in
  make ~n:g.n es

let union_edges g es =
  make ~n:g.n (List.rev_append es (Array.to_list g.edges))

let equal g1 g2 =
  g1.n = g2.n
  && Array.length g1.edges = Array.length g2.edges
  && begin
       let ok = ref true in
       Array.iteri
         (fun i e -> if cmp_edge e g2.edges.(i) <> 0 then ok := false)
         g1.edges;
       !ok
     end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@,@[<hov>" g.n (m g);
  iter_edges (fun u v -> Format.fprintf fmt "(%d,%d)@ " u v) g;
  Format.fprintf fmt "@]@]"
