let no_radius = max_int

(* Expansion hook: BFS dominates every construction's cost, so traversal
   totals go to the metrics registry. One enabled-check per traversal
   (not per dequeue) keeps the disabled path free. *)
let c_runs = Rs_obs.Obs.counter "bfs/runs"
let c_expansions = Rs_obs.Obs.counter "bfs/expansions"
let h_visited = Rs_obs.Obs.histogram "bfs/visited"

let record_traversal expanded =
  if Rs_obs.Obs.enabled () then begin
    Rs_obs.Obs.incr c_runs;
    Rs_obs.Obs.add c_expansions expanded;
    (* per-traversal reach distribution: p50/p99 of how much of the
       graph each BFS actually touches *)
    Rs_obs.Obs.observe h_visited (float_of_int expanded)
  end

module Marks = struct
  type t = { mutable stamp : int array; mutable gen : int }

  let create () = { stamp = [||]; gen = 0 }

  let clear t = t.gen <- t.gen + 1

  let ensure t n =
    if Array.length t.stamp < n then begin
      (* grow geometrically so repeated use on growing graphs stays
         amortized O(1); stale stamps are disarmed by the generation *)
      let cap = max n (max 16 (2 * Array.length t.stamp)) in
      let fresh = Array.make cap 0 in
      Array.blit t.stamp 0 fresh 0 (Array.length t.stamp);
      t.stamp <- fresh
    end

  let set t v =
    ensure t (v + 1);
    t.stamp.(v) <- t.gen

  let mem t v = v < Array.length t.stamp && t.stamp.(v) = t.gen
end

module Scratch = struct
  (* Reusable BFS state. [stamp.(v) = gen] marks v as reached by the
     most recent run, so resetting between runs is one integer bump —
     O(touched) work total, never O(n). [queue.(0 .. count-1)] keeps the
     visit order of the last run. [marks] and [tree] are vertex sets
     for algorithms layered on a traversal (never touched by the BFS
     itself). *)
  type t = {
    mutable dist : int array;
    mutable parent : int array;
    mutable queue : int array;
    mutable stamp : int array;
    mutable gen : int;
    mutable count : int;
    marks : Marks.t;
    tree : Marks.t;
  }

  let create () =
    {
      dist = [||];
      parent = [||];
      queue = [||];
      stamp = [||];
      gen = 0;
      count = 0;
      marks = Marks.create ();
      tree = Marks.create ();
    }

  let ensure s n =
    if Array.length s.stamp < n then begin
      let cap = max n (max 16 (2 * Array.length s.stamp)) in
      s.dist <- Array.make cap 0;
      s.parent <- Array.make cap 0;
      s.queue <- Array.make cap 0;
      let fresh = Array.make cap 0 in
      Array.blit s.stamp 0 fresh 0 (Array.length s.stamp);
      s.stamp <- fresh
    end

  let marks s = s.marks
  let tree s = s.tree
  let visited_count s = s.count
  let visited s i = s.queue.(i)
  let reached s v = v < Array.length s.stamp && s.stamp.(v) = s.gen
  let dist s v = if reached s v then s.dist.(v) else -1
  let parent s v = if reached s v then s.parent.(v) else -1

  let iter_visited s f =
    for i = 0 to s.count - 1 do
      f s.queue.(i)
    done

  (* Single traversal computing distances and deterministic parents at
     once. The canonical parent of [v] is its smallest-id neighbor at
     distance d(v)-1 — a property of the graph alone, independent of
     queue order, so any traversal schedule (per-root BFS here, the
     bit-parallel batched engine in [Msbfs]) reconstructs the same
     parents. The first discoverer is only a candidate: every vertex
     at d(v)-1 is dequeued and either discovers [v] or lowers its
     parent in the [else] branch, so the minimum is always reached. *)
  let run ?(radius = no_radius) s g src =
    ensure s (Graph.n g);
    s.gen <- s.gen + 1;
    let gen = s.gen in
    let dist = s.dist and parent = s.parent and queue = s.queue and stamp = s.stamp in
    let off, nbr = Graph.csr g in
    stamp.(src) <- gen;
    dist.(src) <- 0;
    parent.(src) <- src;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) in
      if du < radius then
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if stamp.(v) <> gen then begin
            stamp.(v) <- gen;
            dist.(v) <- du + 1;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end
          else if dist.(v) = du + 1 && u < parent.(v) then parent.(v) <- u
        done
    done;
    s.count <- !tail;
    record_traversal !tail

  let run_adj ?(radius = no_radius) s adj src =
    ensure s (Array.length adj);
    s.gen <- s.gen + 1;
    let gen = s.gen in
    let dist = s.dist and parent = s.parent and queue = s.queue and stamp = s.stamp in
    stamp.(src) <- gen;
    dist.(src) <- 0;
    parent.(src) <- src;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) in
      if du < radius then
        Array.iter
          (fun v ->
            if stamp.(v) <> gen then begin
              stamp.(v) <- gen;
              dist.(v) <- du + 1;
              parent.(v) <- u;
              queue.(!tail) <- v;
              incr tail
            end
            else if dist.(v) = du + 1 && u < parent.(v) then parent.(v) <- u)
          adj.(u)
    done;
    s.count <- !tail;
    record_traversal !tail

  (* d_{H_u}(u, ·): source at 0, its G-neighbors seeded at distance 1,
     expansion through [h_adj] alone (see [augmented_dist]). *)
  let run_augmented s g h_adj src =
    ensure s (Graph.n g);
    s.gen <- s.gen + 1;
    let gen = s.gen in
    let dist = s.dist and parent = s.parent and queue = s.queue and stamp = s.stamp in
    stamp.(src) <- gen;
    dist.(src) <- 0;
    parent.(src) <- src;
    let tail = ref 0 in
    Graph.iter_neighbors g src (fun v ->
        if stamp.(v) <> gen then begin
          stamp.(v) <- gen;
          dist.(v) <- 1;
          parent.(v) <- src;
          queue.(!tail) <- v;
          incr tail
        end);
    let head = ref 0 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(u) in
      Array.iter
        (fun v ->
          if stamp.(v) <> gen then begin
            stamp.(v) <- gen;
            dist.(v) <- du + 1;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end)
        h_adj.(u)
    done;
    (* src is not in the queue; count only covers queued vertices *)
    s.count <- !tail;
    record_traversal !tail
end

(* Domain-local scratch backing the array-returning convenience API:
   each call allocates only its result, never the traversal state (and
   never rebuilds the adjacency — BFS runs straight over the CSR). *)
let dls_scratch = Domain.DLS.new_key (fun () -> Scratch.create ())

let dist ?radius g src =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run ?radius s g src;
  let out = Array.make (Graph.n g) (-1) in
  Scratch.iter_visited s (fun v -> out.(v) <- s.Scratch.dist.(v));
  out

let parents ?radius g src =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run ?radius s g src;
  let out = Array.make (Graph.n g) (-1) in
  Scratch.iter_visited s (fun v -> out.(v) <- s.Scratch.parent.(v));
  out

let dist_adj ?(radius = no_radius) adj src =
  let n = Array.length adj in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius then
      Array.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- du + 1;
            queue.(!tail) <- v;
            incr tail
          end)
        adj.(u)
  done;
  record_traversal !head;
  dist

let parents_adj ?(radius = no_radius) adj src =
  let n = Array.length adj in
  let dist = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(src) <- 0;
  parent.(src) <- src;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius then
      (* canonical parent = smallest-id neighbor at distance d(v)-1;
         see [Scratch.run] for why the [else] branch reaches it *)
      Array.iter
        (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- du + 1;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end
          else if dist.(v) = du + 1 && u < parent.(v) then parent.(v) <- u)
        adj.(u)
  done;
  record_traversal !head;
  parent

let dist_pair ?(radius = no_radius) g u v =
  if u = v then begin
    (* the degenerate traversal still counts one bfs/run so callers
       alternating pair queries see consistent metrics *)
    record_traversal 0;
    0
  end
  else begin
    let s = Domain.DLS.get dls_scratch in
    Scratch.ensure s (Graph.n g);
    s.Scratch.gen <- s.Scratch.gen + 1;
    let gen = s.Scratch.gen in
    let dist = s.Scratch.dist
    and queue = s.Scratch.queue
    and stamp = s.Scratch.stamp in
    let off, nbr = Graph.csr g in
    stamp.(u) <- gen;
    dist.(u) <- 0;
    queue.(0) <- u;
    let head = ref 0 and tail = ref 1 in
    let found = ref (-1) in
    while !found < 0 && !head < !tail do
      let x = queue.(!head) in
      incr head;
      let dx = dist.(x) in
      if dx < radius then
        for i = off.(x) to off.(x + 1) - 1 do
          let y = nbr.(i) in
          if stamp.(y) <> gen then begin
            stamp.(y) <- gen;
            dist.(y) <- dx + 1;
            if y = v then found := dx + 1;
            queue.(!tail) <- y;
            incr tail
          end
        done
    done;
    s.Scratch.count <- 0;
    record_traversal !head;
    !found
  end

let ball g u r =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run ~radius:r s g u;
  let a = Array.make (Scratch.visited_count s) 0 in
  Array.iteri (fun i _ -> a.(i) <- Scratch.visited s i) a;
  let d = s.Scratch.dist in
  Array.sort
    (fun a b ->
      let c = Int.compare d.(a) d.(b) in
      if c <> 0 then c else Int.compare a b)
    a;
  a

let sphere g u r =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run ~radius:r s g u;
  let acc = ref [] in
  for i = Scratch.visited_count s - 1 downto 0 do
    let v = Scratch.visited s i in
    if s.Scratch.dist.(v) = r then acc := v :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort Int.compare a;
  a

let ecc g u =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run s g u;
  let best = ref 0 in
  Scratch.iter_visited s (fun v -> best := max !best s.Scratch.dist.(v));
  !best

let diameter g =
  let n = Graph.n g in
  if n <= 1 then 0
  else begin
    let d0 = dist g 0 in
    if Array.exists (fun x -> x < 0) d0 then -1
    else
      let best = ref 0 in
      for u = 0 to n - 1 do
        best := max !best (ecc g u)
      done;
      !best
  end

let augmented_dist g h_adj u =
  let s = Domain.DLS.get dls_scratch in
  Scratch.run_augmented s g h_adj u;
  let out = Array.make (Graph.n g) (-1) in
  out.(u) <- 0;
  Scratch.iter_visited s (fun v -> out.(v) <- s.Scratch.dist.(v));
  out
