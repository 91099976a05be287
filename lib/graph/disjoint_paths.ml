(* Successive shortest paths on the implicit vertex-split residual
   graph of H_s: the CSR of [h], except that s's own arcs come from
   [g]'s row (one query over [h = g] is a plain query on g). Node ids:
   x_in = 2x, x_out = 2x + 1; the source is s_out, the sink t_in. The
   arcs are never built:

   - x_in -> x_out (cost 0) while x is unused, x_out -> x_in (cost 0)
     once it carries flow — x <> s, t. In edge mode both are always
     open: a vertex has no capacity, only edges do;
   - a_out -> b_in (cost 1) for every directed edge a->b without flow,
     b_in -> a_out (cost -1) for every one with flow.

   No arc into s is ever used: an augmenting path starts at s_out,
   which Dijkstra settles first at reduced distance 0, so relaxing it
   again can never succeed, and a min-cost flow sends nothing into s
   (that flow would close a positive cycle). So s's arcs are exactly
   its [g]-row, and every other vertex's are its [h]-row with s
   skipped: the flow counterpart of [Bfs.augmented_dist].

   Flow lives in generation stamps: [used.(x) = qgen] when vertex x
   carries flow, [flow.(key) = qgen] when directed edge a->b does, with
   [key = 2 * id + (if a < b then 0 else 1)] from [h]'s edge ids, and
   [key = 2 * m(h) + i - off_g.(s)] for s's arc in slot i of [g]'s
   row. A query bumps [qgen] and so starts from zero flow in O(1).

   Potentials are stamped per-node offsets, 0 until a round touches the
   node. Dijkstra stops when it pops the sink at reduced distance D;
   every node settled below D then moves by dist - D. That is the
   classic [pot += min(dist, D)] shifted by the constant D, so reduced
   costs stay non-negative and a round costs what it touched. *)

type mode = Vertex | Edge

type scratch = {
  mutable qgen : int;  (* query: used, flow, pot *)
  mutable rgen : int;  (* Dijkstra round: labels, settled *)
  mutable used : int array;  (* n *)
  mutable flow : int array;  (* 2m *)
  mutable pot_at : int array;  (* 2n *)
  mutable pot : int array;
  mutable label_at : int array;
  mutable dist : int array;
  mutable settled_at : int array;
  mutable prev : int array;  (* predecessor node on the shortest path *)
  mutable prev_key : int array;  (* edge-arc key into [flow]; -1 for vertex arcs *)
  mutable settled : int array;  (* this round's settled nodes *)
  mutable nsettled : int;
  (* unboxed binary heap of (key, node), keys and nodes side by side *)
  mutable hkey : int array;
  mutable hnode : int array;
  mutable hlen : int;
}

let create_scratch () =
  {
    qgen = 0;
    rgen = 0;
    used = [||];
    flow = [||];
    pot_at = [||];
    pot = [||];
    label_at = [||];
    dist = [||];
    settled_at = [||];
    prev = [||];
    prev_key = [||];
    settled = [||];
    nsettled = 0;
    hkey = Array.make 64 0;
    hnode = Array.make 64 0;
    hlen = 0;
  }

(* Grow-only. Fresh stamp arrays hold 0 and generations start at 1, so
   a grown array reads as unset; growth happens only between queries.
   The flow keys of s's arcs are sized for any s (degree < n), so the
   queries over one graph never grow it. *)
let ensure sc h =
  let n = Graph.n h in
  let keys = (2 * Graph.m h) + n in
  if Array.length sc.used < n then begin
    let cap = max n (2 * Array.length sc.used) in
    let nodes () = Array.make (2 * cap) 0 in
    sc.used <- Array.make cap 0;
    sc.pot_at <- nodes ();
    sc.pot <- nodes ();
    sc.label_at <- nodes ();
    sc.dist <- nodes ();
    sc.settled_at <- nodes ();
    sc.prev <- nodes ();
    sc.prev_key <- nodes ();
    sc.settled <- nodes ()
  end;
  if Array.length sc.flow < keys then
    sc.flow <- Array.make (max keys (2 * Array.length sc.flow)) 0

let dls_scratch = Domain.DLS.new_key create_scratch

let heap_push sc key node =
  if sc.hlen = Array.length sc.hkey then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    sc.hkey <- grow sc.hkey;
    sc.hnode <- grow sc.hnode
  end;
  let hkey = sc.hkey and hnode = sc.hnode in
  let i = ref sc.hlen in
  sc.hlen <- sc.hlen + 1;
  while !i > 0 && hkey.((!i - 1) / 2) > key do
    let p = (!i - 1) / 2 in
    hkey.(!i) <- hkey.(p);
    hnode.(!i) <- hnode.(p);
    i := p
  done;
  hkey.(!i) <- key;
  hnode.(!i) <- node

(* Removes the minimum; read it from [hkey.(0)]/[hnode.(0)] first. *)
let heap_drop sc =
  let hkey = sc.hkey and hnode = sc.hnode in
  let len = sc.hlen - 1 in
  sc.hlen <- len;
  let key = hkey.(len) and node = hnode.(len) in
  let i = ref 0 and continue = ref (len > 0) in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let c = if l + 1 < len && hkey.(l + 1) < hkey.(l) then l + 1 else l in
      if hkey.(c) < key then begin
        hkey.(!i) <- hkey.(c);
        hnode.(!i) <- hnode.(c);
        i := c
      end
      else continue := false
    end
  done;
  if len > 0 then begin
    hkey.(!i) <- key;
    hnode.(!i) <- node
  end

let pot sc v = if sc.pot_at.(v) = sc.qgen then sc.pot.(v) else 0

let relax sc v nd u key =
  if sc.label_at.(v) <> sc.rgen || nd < sc.dist.(v) then begin
    sc.label_at.(v) <- sc.rgen;
    sc.dist.(v) <- nd;
    sc.prev.(v) <- u;
    sc.prev_key.(v) <- key;
    heap_push sc nd v
  end

(* One shortest augmenting path from s_out to t_in under the current
   flow; pushes one unit along it and returns its real cost (+1 per
   edge arc, -1 per cancelled one), or -1 when the sink is cut off. *)
let augment sc mode g h s t =
  let off, nbr = Graph.csr h in
  let eid = Graph.csr_edge_ids h in
  let soff, snbr = Graph.csr g in
  let sbase = (2 * Graph.m h) - soff.(s) in
  let edge = mode = Edge in
  let qg = sc.qgen in
  sc.rgen <- sc.rgen + 1;
  let rg = sc.rgen in
  let src = (2 * s) + 1 and sink = 2 * t in
  sc.hlen <- 0;
  sc.nsettled <- 0;
  relax sc src 0 src (-1);
  let found = ref false in
  while (not !found) && sc.hlen > 0 do
    let d = sc.hkey.(0) and u = sc.hnode.(0) in
    heap_drop sc;
    if sc.settled_at.(u) <> rg && d = sc.dist.(u) then begin
      sc.settled_at.(u) <- rg;
      sc.settled.(sc.nsettled) <- u;
      sc.nsettled <- sc.nsettled + 1;
      if u = sink then found := true
      else begin
        let x = u lsr 1 in
        let du = d + pot sc u in
        let used = sc.used.(x) = qg in
        if u land 1 = 0 then begin
          (* x_in: across x while it is free, and back along the flow
             edges that enter x once it carries flow (edge mode: both,
             always) *)
          if (edge || not used) && x <> s && x <> t then
            relax sc (u + 1) (du - pot sc (u + 1)) u (-1);
          if edge || used then
            for i = off.(x) to off.(x + 1) - 1 do
              let a = nbr.(i) in
              let key = (2 * eid.(i)) + if a < x then 0 else 1 in
              if sc.flow.(key) = qg then
                relax sc ((2 * a) + 1) (du - 1 - pot sc ((2 * a) + 1)) u key
            done
        end
        else if x = s then
          (* s_out: every free edge of s in g *)
          for i = soff.(s) to soff.(s + 1) - 1 do
            let b = snbr.(i) in
            if sc.flow.(sbase + i) <> qg then
              relax sc (2 * b) (du + 1 - pot sc (2 * b)) u (sbase + i)
          done
        else begin
          (* x_out: back across x if it carries flow (edge mode:
             always), then every free edge out of x (s_in is a dead end
             and is skipped) *)
          if edge || used then relax sc (u - 1) (du - pot sc (u - 1)) u (-1);
          for i = off.(x) to off.(x + 1) - 1 do
            let b = nbr.(i) in
            if b <> s then begin
              let key = (2 * eid.(i)) + if x < b then 0 else 1 in
              if sc.flow.(key) <> qg then relax sc (2 * b) (du + 1 - pot sc (2 * b)) u key
            end
          done
        end
      end
    end
  done;
  if not !found then -1
  else begin
    let dt = sc.dist.(sink) in
    for i = 0 to sc.nsettled - 1 do
      let v = sc.settled.(i) in
      let dv = sc.dist.(v) in
      if dv < dt then begin
        sc.pot.(v) <- pot sc v + dv - dt;
        sc.pot_at.(v) <- qg
      end
    done;
    let cost = ref 0 and v = ref sink in
    while !v <> src do
      let u = sc.prev.(!v) and key = sc.prev_key.(!v) in
      if key < 0 then sc.used.(u lsr 1) <- (if u land 1 = 0 then qg else 0)
      else if u land 1 = 1 then begin
        sc.flow.(key) <- qg;
        incr cost
      end
      else begin
        sc.flow.(key) <- 0;
        decr cost
      end;
      v := u
    done;
    !cost
  end

let check_query g h s t =
  let n = Graph.n g in
  if Graph.n h <> n then invalid_arg "Disjoint_paths: g and h differ in vertex count";
  if s = t then invalid_arg "Disjoint_paths: s = t";
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Disjoint_paths: vertex out of range"

(* Starts a query on the domain's scratch: zero flow, zero potentials. *)
let start h =
  let sc = Domain.DLS.get dls_scratch in
  ensure sc h;
  sc.qgen <- sc.qgen + 1;
  sc

(* Augments up to [kmax] times; [a.(i)] is the cumulative cost after
   augmentation i + 1. Returns the number of augmentations made. *)
let augment_upto sc mode g h s t kmax a =
  let rec go i acc =
    if i >= kmax then i
    else
      let c = augment sc mode g h s t in
      if c < 0 then i
      else begin
        a.(i) <- acc + c;
        go (i + 1) (acc + c)
      end
  in
  go 0 0

(* Each disjoint path takes its own edge at s and at t in H_s, so no
   more than this many exist; it caps every k-sized allocation. *)
let degree_bound g h s t =
  let st_added = Graph.mem_edge g s t && not (Graph.mem_edge h s t) in
  min (Graph.degree g s) (Graph.degree h t + if st_added then 1 else 0)

let augmented_profile mode g h ~kmax s t =
  check_query g h s t;
  if kmax < 1 then invalid_arg "Disjoint_paths.dk_profile: kmax < 1";
  let kmax = min kmax (degree_bound g h s t) in
  let sc = start h in
  let a = Array.make kmax 0 in
  let got = augment_upto sc mode g h s t kmax a in
  if got = kmax then a else Array.sub a 0 got

let dk_profile g ~kmax s t = augmented_profile Vertex g g ~kmax s t

let dk g ~k s t =
  let profile = dk_profile g ~kmax:k s t in
  if Array.length profile >= k then Some profile.(k - 1) else None

let max_disjoint g s t = Array.length (dk_profile g ~kmax:max_int s t)

(* The flow out of [v]: its first arc (by neighbor id) with flow, which
   is consumed. Each internal vertex has one per path through it; s
   has k. *)
let take_succ sc g h s v =
  let off, nbr = Graph.csr (if v = s then g else h) in
  let eid = Graph.csr_edge_ids h in
  let key i =
    if v = s then (2 * Graph.m h) + i - off.(s)
    else (2 * eid.(i)) + if v < nbr.(i) then 0 else 1
  in
  let rec scan i =
    if i >= off.(v + 1) then invalid_arg "Disjoint_paths: broken flow decomposition"
    else
      let key = key i in
      if sc.flow.(key) = sc.qgen then begin
        sc.flow.(key) <- 0;
        nbr.(i)
      end
      else scan (i + 1)
  in
  scan off.(v)

let augmented_min_sum_paths mode g h ~k s t =
  check_query g h s t;
  if k < 1 then invalid_arg "Disjoint_paths.min_sum_paths: k < 1";
  let sc = start h in
  if k > degree_bound g h s t || augment_upto sc mode g h s t k (Array.make k 0) < k then None
  else begin
    (* a min-cost flow has no cycle (every edge arc costs 1), so
       following the flow from s reaches t on a simple path *)
    let walk () =
      let rec go v acc =
        if v = t then List.rev (t :: acc) else go (take_succ sc g h s v) (v :: acc)
      in
      go s []
    in
    Some (List.init k (fun _ -> walk ()))
  end

let min_sum_paths g ~k s t = augmented_min_sum_paths Vertex g g ~k s t
