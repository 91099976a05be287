(* Seeded inputs: the topology, the read streams, the churn plan, and
   the bench-side oracle the correctness gate checks replies against.
   The programs under test only ever see the .rsg file and the request
   lines made here. *)

open Rs_graph
module Delta = Rs_dynamic.Delta

type topo = {
  g : Graph.t;
  n : int;
  m : int;
  adj : int array array;  (* sorted neighbours, the oracle's own copy *)
  edges : (int * int) array;
}

(* Constant-density unit disk graph, the same model as bench/service.ml. *)
let udg ~seed ~n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  let g = Rs_geometry.Unit_ball.udg pts in
  let adj =
    Array.init (Graph.n g) (fun u ->
        let a = Array.copy (Graph.neighbors g u) in
        Array.sort Int.compare a;
        a)
  in
  { g; n = Graph.n g; m = Graph.m g; adj; edges = Graph.edges g }

let rng ~seed ~salt = Random.State.make [| seed; salt |]

let mem_sorted a x =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = x then true else if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* {1 Topology over time}

   Every churn delta pair returns the graph to its start, so the graph
   after any prefix of the plan is the original minus at most one
   removed edge or one downed node. *)

type mask = Intact | No_edge of int * int | No_node of int

let has_edge t mask u v =
  mem_sorted t.adj.(u) v
  &&
  match mask with
  | Intact -> true
  | No_edge (a, b) -> not ((u = a && v = b) || (u = b && v = a))
  | No_node x -> u <> x && v <> x

(* Distances from [src] (-1 when unreachable), and every node in the
   order the search reached it, the unreached ones last. *)
let bfs_order t mask src =
  let dist = Array.make t.n (-1) in
  let queue = Array.make t.n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    Array.iter
      (fun y ->
        if dist.(y) < 0 && has_edge t mask x y then begin
          dist.(y) <- dist.(x) + 1;
          queue.(!tail) <- y;
          incr tail
        end)
      t.adj.(x)
  done;
  Array.iteri
    (fun v d ->
      if d < 0 then begin
        queue.(!tail) <- v;
        incr tail
      end)
    dist;
  (dist, queue)

let bfs t mask src = fst (bfs_order t mask src)

(* {1 Reads} *)

type kind = Route | Paths | Advert | Stats
type read = { kind : kind; a : int; b : int; line : string }

let kind_name = function
  | Route -> "route"
  | Paths -> "paths"
  | Advert -> "advert"
  | Stats -> "stats"

let make_read kind a b =
  let line =
    match kind with
    | Route -> Printf.sprintf "route %d %d" a b
    | Paths -> Printf.sprintf "paths %d %d 2" a b
    | Advert -> Printf.sprintf "advert %d" a
    | Stats -> "stats"
  in
  { kind; a; b; line }

(* A mix is a list of (share, kind) whose shares sum to 1. *)
let route_mix = [ (0.90, Route); (0.05, Paths); (0.05, Advert) ]
let lookup_mix = [ (0.90, Advert); (0.10, Stats) ]
let probe_mix = [ (0.50, Route); (0.50, Advert) ]

(* A seeded read stream. A route's cost grows with its hop count, so
   with independent uniform pairs the hop counts a run happened to draw
   moved its latency quantiles from run to run. Each pair is still
   uniform, but the destinations are stratified: the other nodes are
   ranked by distance from the source, and every [strata] consecutive
   route or paths requests draw from each 1/[strata] of that ranking
   once, in shuffled order. *)
type stream = { st : Random.State.t; turn : int array; mutable next : int }

let strata = 16
let stream ~seed ~salt = { st = rng ~seed ~salt; turn = Array.init strata Fun.id; next = strata }

let next_stratum s =
  if s.next = strata then begin
    for i = strata - 1 downto 1 do
      let j = Random.State.int s.st (i + 1) in
      let x = s.turn.(i) in
      s.turn.(i) <- s.turn.(j);
      s.turn.(j) <- x
    done;
    s.next <- 0
  end;
  s.next <- s.next + 1;
  s.turn.(s.next - 1)

let destination s t a =
  let _, order = bfs_order t Intact a in
  let u = (float_of_int (next_stratum s) +. Random.State.float s.st 1.0) /. float_of_int strata in
  (* order.(0) is [a] itself *)
  order.(1 + min (t.n - 2) (int_of_float (u *. float_of_int (t.n - 1))))

let draw_read s t mix =
  let x = Random.State.float s.st 1.0 in
  let rec pick acc = function
    | [ (_, k) ] -> k
    | (p, k) :: rest -> if x < acc +. p then k else pick (acc +. p) rest
    | [] -> invalid_arg "draw_read: empty mix"
  in
  let kind = pick 0. mix in
  let a = Random.State.int s.st t.n in
  make_read kind a (match kind with Route | Paths -> destination s t a | _ -> a)

(* Poisson arrival times in [start, start + dur). *)
let arrivals s ~rate ~start ~dur =
  let out = Stats.sample () in
  let t = ref start in
  let stop = start +. dur in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1.0 -. Random.State.float s.st 1.0) /. rate);
    if !t >= stop then continue := false else Stats.add out !t
  done;
  Stats.values out

(* {1 Churn plan}

   Four pairs in five remove an edge and restore it; every fifth takes
   a node down and brings it back with its original links. The edges
   and nodes are seeded; the fixed 4:1 pattern keeps the share of node
   operations in a run of a few dozen pairs from varying with the seed.
   Step [i] (1-based) is the delta that takes a fresh leader to
   sequence number [i]. *)

type step = { delta : Delta.t; dline : string; node_op : bool; after : mask }

type plan = {
  topo : topo;
  st : Random.State.t;
  steps : step Queue.t;  (* made but not yet handed out *)
  mutable made : step array;  (* handed out, in order *)
  mutable len : int;
  mutable pairs : int;
}

let plan t ~seed =
  { topo = t; st = rng ~seed ~salt:7; steps = Queue.create (); made = [||]; len = 0; pairs = 0 }

let make_pair p =
  let t = p.topo in
  p.pairs <- p.pairs + 1;
  if p.pairs mod 5 <> 0 then begin
    let u, v = t.edges.(Random.State.int p.st (Array.length t.edges)) in
    Queue.push
      { delta = [ Delta.Remove_edge (u, v) ]; dline = Printf.sprintf "delta remove %d %d" u v;
        node_op = false; after = No_edge (u, v) }
      p.steps;
    Queue.push
      { delta = [ Delta.Add_edge (u, v) ]; dline = Printf.sprintf "delta add %d %d" u v;
        node_op = false; after = Intact }
      p.steps
  end
  else begin
    let rec node () =
      let u = Random.State.int p.st t.n in
      if Array.length t.adj.(u) = 0 then node () else u
    in
    let u = node () in
    let links = Array.to_list t.adj.(u) in
    Queue.push
      { delta = [ Delta.Node_down u ]; dline = Printf.sprintf "delta down %d" u;
        node_op = true; after = No_node u }
      p.steps;
    Queue.push
      { delta = [ Delta.Node_up (u, links) ];
        dline = "delta up " ^ String.concat " " (List.map string_of_int (u :: links));
        node_op = true; after = Intact }
      p.steps
  end

(* The next plan step; steps are remembered so [mask_at] can answer
   for any sequence number already handed out. *)
let next p =
  if Queue.is_empty p.steps then make_pair p;
  let s = Queue.pop p.steps in
  if p.len = Array.length p.made then begin
    let a = Array.make (max 64 (2 * p.len)) s in
    Array.blit p.made 0 a 0 p.len;
    p.made <- a
  end;
  p.made.(p.len) <- s;
  p.len <- p.len + 1;
  s

let issued p = p.len
let mask_at p seq = if seq <= 0 then Intact else p.made.(seq - 1).after

(* The graph after the first [seq] steps, as a library value. *)
let graph_at p seq =
  match mask_at p seq with
  | Intact -> p.topo.g
  | No_edge _ | No_node _ -> Delta.apply p.topo.g p.made.(seq - 1).delta
