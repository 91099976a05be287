open Rs_graph
module Obs = Rs_obs.Obs

(* Batched construction: roots are processed [Msbfs.width] at a time
   through the bit-parallel multi-source BFS, batches are fanned over
   domains by the work-stealing driver, and every domain accumulates
   canonical edge ids in a flat int array merged into one Edge_set at
   the end — no O(n) Tree.t per root, no per-tree Edge_set. This is
   what takes construction from n = 2000 to n = 10^5..10^6. It is the
   only driver that turns roots into trees: [Remote_spanner]'s entry
   points (domains = 1) and [Rs_dynamic.Repair] (per-root trees via
   [iter_trees]) route here.

   Edge sets are identical to the per-root sequential reference for
   any domain count, batch size or root order: each root's tree
   depends only on its ball, tie-breaks are by vertex id everywhere,
   and the emit cores are the same code the Tree.t wrappers run. *)

type strategy =
  | Gdy of { r : int; beta : int }
  | Mis of { r : int }
  | Gdy_k of { k : int }
  | Mis_k of { k : int }

let pp_strategy fmt = function
  | Gdy { r; beta } -> Format.fprintf fmt "gdy(r=%d,beta=%d)" r beta
  | Mis { r } -> Format.fprintf fmt "mis(r=%d)" r
  | Gdy_k { k } -> Format.fprintf fmt "gdy_k(k=%d)" k
  | Mis_k { k } -> Format.fprintf fmt "mis_k(k=%d)" k

let default_domains () = min 8 (Domain.recommended_domain_count ())

(* One tick per emitted tree, so any domain count sums to the
   one-domain run's metrics (asserted by a property test).
   Domain-balance histograms are observed from the coordinating thread
   after joins; the measurements themselves happen inside each domain. *)
let c_trees = Obs.counter "core/trees_built"
let h_domain_wall = Obs.histogram "parallel/domain_wall_s"
let h_domain_items = Obs.histogram "parallel/domain_items"

let record_domain items dt =
  if Obs.enabled () then begin
    Obs.observe h_domain_items (float_of_int items);
    Obs.observe h_domain_wall dt
  end

(* Work-stealing over the range [0, n): domains repeatedly claim the
   next chunk off a shared atomic cursor, so a domain that lands on
   cheap items simply claims more chunks instead of idling at a static
   block boundary. The default chunk is big enough to amortize the
   fetch-and-add, small enough that the tail imbalance is bounded by
   one chunk per domain; pass [~chunk] when items are already coarse
   (a batch of [Msbfs.width] roots claims one index at a time). *)
let chunk_size n domains = max 1 (min 64 (n / (domains * 8)))

(* Each domain runs [worker claim]: a full claim-process loop plus any
   per-domain finalization (e.g. merging its accumulator), returning
   how many items it processed. [claim] hands out chunks until the
   range is exhausted or [stop ()] aborts the sweep
   (claimed-but-unprocessed chunks are then fine to drop). The calling
   domain doubles as a worker, so [domains] counts it. *)
let drive ?chunk ~n ~domains ~stop worker =
  let cursor = Atomic.make 0 in
  let chunk = match chunk with Some c -> max 1 c | None -> chunk_size n domains in
  let claim () =
    if stop () then None
    else
      let lo = Atomic.fetch_and_add cursor chunk in
      if lo >= n then None else Some (lo, min (n - 1) (lo + chunk - 1))
  in
  let run_domain () =
    let t0 = if Obs.enabled () then Obs.now () else 0.0 in
    let items = worker claim in
    let dt = if Obs.enabled () then Obs.now () -. t0 else 0.0 in
    (items, dt)
  in
  let handles = List.init (domains - 1) (fun _ -> Domain.spawn run_domain) in
  let own = run_domain () in
  let per_domain = own :: List.map Domain.join handles in
  List.iter (fun (items, dt) -> record_domain items dt) per_domain

(* Multi-restart BFS visit order: consecutive roots are graph-close,
   so the balls of one [Msbfs] batch overlap and each shared vertex is
   scanned once per sweep instead of once per root. Works for any
   graph, no coordinates needed (UDG callers can do better with
   [Rs_geometry.Proximity.grid_order]). The order array doubles as the
   BFS queue. Deliberately not recorded as bfs/runs: it is scheduling,
   not a traversal the sequential reference performs. *)
let locality_order g =
  let n = Graph.n g in
  let order = Array.make n 0 in
  let seen = Array.make n false in
  let off, nbr = Graph.csr g in
  let tail = ref 0 in
  for src = 0 to n - 1 do
    if not seen.(src) then begin
      seen.(src) <- true;
      order.(!tail) <- src;
      incr tail;
      let head = ref (!tail - 1) in
      while !head < !tail do
        let u = order.(!head) in
        incr head;
        for i = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(i) in
          if not seen.(v) then begin
            seen.(v) <- true;
            order.(!tail) <- v;
            incr tail
          end
        done
      done
    end
  done;
  order

let radius_of = function
  | Gdy { r; beta } -> r + beta
  | Mis { r } -> r
  | Gdy_k _ | Mis_k _ -> 2

let validate = function
  | Gdy { r; beta } ->
      if r < 1 || beta < 0 then invalid_arg "Sharded.build: need r >= 1, beta >= 0"
  | Mis { r } -> if r < 1 then invalid_arg "Sharded.build: need r >= 1"
  | Gdy_k { k } | Mis_k { k } -> if k < 1 then invalid_arg "Sharded.build: need k >= 1"

(* Growable flat int buffer: one root's emitted (parent, child) pairs,
   or a domain's accumulated edge ids. *)
type buf = { mutable a : int array; mutable len : int }

let buf () = { a = Array.make 1024 0; len = 0 }

let push b x =
  if b.len >= Array.length b.a then begin
    let fresh = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 fresh 0 b.len;
    b.a <- fresh
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* Per-domain state. Distance, membership and local-remap arrays are
   generation-stamped so per-root reset is O(1); [edges] packs the
   current root's emitted pairs flat. *)
type ctx = {
  ms : Msbfs.t;
  dist : int array;
  dstamp : int array;
  mutable dgen : int;
  memb : int array; (* tree membership, stamped per root *)
  mutable mgen : int;
  tpar : int array; (* tree parent of a member (mis_k) *)
  dead : Bfs.Marks.t; (* MIS removals *)
  q : int array; (* halo-collection queue (local mode) *)
  lmap : int array; (* global id -> local id, stamped per batch *)
  lstamp : int array;
  mutable lgen : int;
  edges : buf;
  mutable unsafe : int list; (* roots owed to the boundary-repair pass *)
}

let create_ctx n =
  {
    ms = Msbfs.create ();
    dist = Array.make n 0;
    dstamp = Array.make n 0;
    dgen = 0;
    memb = Array.make n 0;
    mgen = 0;
    tpar = Array.make n 0;
    dead = Bfs.Marks.create ();
    q = Array.make n 0;
    lmap = Array.make n 0;
    lstamp = Array.make n 0;
    lgen = 0;
    edges = buf ();
    unsafe = [];
  }

(* distances of one slot's ball into the stamped per-domain array *)
let fill_dist ctx s =
  ctx.dgen <- ctx.dgen + 1;
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp in
  Msbfs.iter_visited ctx.ms s (fun v d ->
      dstamp.(v) <- gen;
      dist.(v) <- d)

(* Canonical parent of [v] (smallest-id neighbor one level closer):
   the CSR range is id-sorted, so the first stamped neighbor at
   [dist v - 1] is the same parent [Bfs.Scratch.run] computes. *)
let parent_of_csr off nbr ctx v =
  let dv = ctx.dist.(v) - 1 in
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp in
  let res = ref (-1) in
  let i = ref off.(v) and hi = off.(v + 1) in
  while !res < 0 && !i < hi do
    let w = nbr.(!i) in
    if dstamp.(w) = gen && dist.(w) = dv then res := w;
    incr i
  done;
  !res

(* One root's tree, emitted from its Msbfs slot against graph [gg]
   (the host graph, or a shard's induced sub-graph in local mode —
   [host] translates back to host ids) and handed to [sink]. *)
let process_slot gg ctx strat s ~host ~sink =
  let root = Msbfs.source ctx.ms s in
  Obs.incr c_trees;
  ctx.mgen <- ctx.mgen + 1;
  let mgen = ctx.mgen and memb = ctx.memb and tpar = ctx.tpar in
  memb.(root) <- mgen;
  tpar.(root) <- root;
  ctx.edges.len <- 0;
  let mem v = memb.(v) = mgen in
  let add p c =
    push ctx.edges (host p);
    push ctx.edges (host c);
    memb.(c) <- mgen;
    tpar.(c) <- p
  in
  (match strat with
  | Gdy_k { k } ->
      let sphere = (Msbfs.levels ctx.ms s ~max_dist:2).(2) in
      Dom_tree_k.gdy_k_emit gg ~k ~sphere root ~add
  | Gdy { r; beta } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr gg in
      let levels = Msbfs.levels ctx.ms s ~max_dist:(r + beta) in
      Dom_tree.gdy_emit gg ~r ~beta ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
  | Mis { r } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr gg in
      let levels = Msbfs.levels ctx.ms s ~max_dist:r in
      Bfs.Marks.clear ctx.dead;
      Dom_tree.mis_emit gg ~r ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
        ~dead_mem:(Bfs.Marks.mem ctx.dead) ~dead_add:(Bfs.Marks.set ctx.dead)
  | Mis_k { k } ->
      let sphere = (Msbfs.levels ctx.ms s ~max_dist:2).(2) in
      Dom_tree_k.mis_k_emit gg ~k ~sphere
        ~parent:(fun v -> if mem v then tpar.(v) else -1)
        root ~add);
  sink (host root) ctx.edges.a (ctx.edges.len / 2)

let process_batch g ctx strat roots ~sink =
  Msbfs.run ~radius:(radius_of strat) ctx.ms g roots;
  for s = 0 to Array.length roots - 1 do
    process_slot g ctx strat s ~host:Fun.id ~sink
  done

(* Local (shard-isolated) batch: materialize the induced sub-graph on
   the batch's roots plus a (radius-1)-halo and run the whole batch
   against it — the halo fits a cache level when the host graph does
   not. A root is safe iff no vertex its traversal expanded (local
   dist < radius) is on the fringe (had a neighbor clipped away): then
   its local ball, levels and parents are provably identical to the
   global ones and the emitted tree is exact. Clipped roots are queued
   for the boundary-repair pass. The halo is deliberately radius-1,
   not radius: a full-radius halo would make every root safe but costs
   one more level of expansion per shard than the repair pass saves. *)
let process_batch_local g ctx strat roots ~sink =
  let radius = radius_of strat in
  let off, nbr = Graph.csr g in
  (* roots + (radius-1)-halo in one bounded multi-source sweep (not a
     logical traversal of the construction: no bfs/runs recorded) *)
  ctx.dgen <- ctx.dgen + 1;
  let gen = ctx.dgen in
  let dist = ctx.dist and dstamp = ctx.dstamp and q = ctx.q in
  let tail = ref 0 in
  Array.iter
    (fun r_ ->
      if dstamp.(r_) <> gen then begin
        dstamp.(r_) <- gen;
        dist.(r_) <- 0;
        q.(!tail) <- r_;
        incr tail
      end)
    roots;
  let head = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    let du = dist.(u) in
    if du < radius - 1 then
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        if dstamp.(v) <> gen then begin
          dstamp.(v) <- gen;
          dist.(v) <- du + 1;
          q.(!tail) <- v;
          incr tail
        end
      done
  done;
  let verts = Array.sub q 0 !tail in
  (* ascending remap keeps local id order = global id order, so every
     smallest-id tie-break picks the same vertex in both numberings *)
  Array.sort Int.compare verts;
  let k = Array.length verts in
  ctx.lgen <- ctx.lgen + 1;
  let lgen = ctx.lgen in
  let lmap = ctx.lmap and lstamp = ctx.lstamp in
  Array.iteri
    (fun i v ->
      lmap.(v) <- i;
      lstamp.(v) <- lgen)
    verts;
  let fringe = Array.make k false in
  let medges = ref 0 in
  for i = 0 to k - 1 do
    let v = verts.(i) in
    let degl = ref 0 in
    for j = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(j) in
      if lstamp.(w) = lgen then begin
        incr degl;
        if lmap.(w) > i then incr medges
      end
    done;
    fringe.(i) <- !degl < off.(v + 1) - off.(v)
  done;
  let edges = Array.make !medges (0, 0) in
  let e = ref 0 in
  for i = 0 to k - 1 do
    let v = verts.(i) in
    for j = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(j) in
      if lstamp.(w) = lgen && lmap.(w) > i then begin
        edges.(!e) <- (i, lmap.(w));
        incr e
      end
    done
  done;
  (* outer index ascending, CSR neighbors ascending, monotone remap:
     the array is canonical and lex-sorted by construction *)
  let lg = Graph.of_canonical ~validate:false ~n:k edges in
  let lroots = Array.map (fun r_ -> lmap.(r_)) roots in
  Msbfs.run ~radius ctx.ms lg lroots;
  for s = 0 to Array.length lroots - 1 do
    let safe = ref true in
    Msbfs.iter_visited ctx.ms s (fun v d -> if d < radius && fringe.(v) then safe := false);
    if !safe then process_slot lg ctx strat s ~host:(Array.get verts) ~sink
    else ctx.unsafe <- verts.(Msbfs.source ctx.ms s) :: ctx.unsafe
  done

(* The engine: every root of [roots] is run through Msbfs batches of
   [chunk] fanned over [domains], and each root's emitted pairs go to
   the sink [make_sink ()] built once per worker (so sinks may hold
   per-domain state). Clipped roots of local mode are re-run in global
   batches on the calling domain, with one more sink. *)
let run ~domains ~chunk ~local g strat roots make_sink =
  let n = Graph.n g in
  let nroots = Array.length roots in
  let mutex = Mutex.create () in
  let boundary = ref [] in
  drive ~chunk:1 ~n:((nroots + chunk - 1) / chunk) ~domains
    ~stop:(fun () -> false)
    (fun claim ->
      let ctx = create_ctx n in
      let sink = make_sink () in
      let items = ref 0 in
      let rec loop () =
        match claim () with
        | None -> ()
        | Some (lo, hi) ->
            for b = lo to hi do
              let blo = b * chunk in
              let len = min chunk (nroots - blo) in
              let batch = Array.sub roots blo len in
              if local then process_batch_local g ctx strat batch ~sink
              else process_batch g ctx strat batch ~sink;
              items := !items + len
            done;
            loop ()
      in
      loop ();
      Mutex.protect mutex (fun () -> boundary := List.rev_append ctx.unsafe !boundary);
      !items);
  (* Boundary repair. The edge set is already deterministic (each
     root's tree is a function of the graph), so the sort only
     stabilizes batching for metrics. *)
  match !boundary with
  | [] -> ()
  | l ->
      let roots = Array.of_list l in
      Array.sort Int.compare roots;
      let ctx = create_ctx n and sink = make_sink () in
      let nb = Array.length roots in
      let i = ref 0 in
      while !i < nb do
        let len = min Msbfs.width (nb - !i) in
        process_batch g ctx strat (Array.sub roots !i len) ~sink;
        i := !i + len
      done

let iter_trees g strat roots f =
  validate strat;
  run ~domains:1 ~chunk:Msbfs.width ~local:false g strat roots (fun () -> f)

let build ?domains ?order ?chunk ?(local = false) g strat =
  validate strat;
  let n = Graph.n g in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let domains = if n < 64 then 1 else domains in
  let chunk =
    match chunk with Some c -> max 1 (min Msbfs.width c) | None -> Msbfs.width
  in
  let order =
    match order with
    | Some o ->
        (* a duplicate entry would silently drop the missing roots'
           trees from the spanner, so check for a true permutation *)
        if Array.length o <> n then
          invalid_arg "Sharded.build: order must be a permutation of the vertex range";
        let seen = Bytes.make n '\000' in
        Array.iter
          (fun v ->
            if v < 0 || v >= n || Bytes.get seen v <> '\000' then
              invalid_arg "Sharded.build: order must be a permutation of the vertex range";
            Bytes.set seen v '\001')
          o;
        o
    | None -> locality_order g
  in
  (* one flat id accumulator per sink, merged once every domain joined *)
  let accs = ref [] and mutex = Mutex.create () in
  run ~domains ~chunk ~local g strat order (fun () ->
      let acc = buf () in
      Mutex.protect mutex (fun () -> accs := acc :: !accs);
      fun _root pairs len ->
        for i = 0 to len - 1 do
          push acc (Graph.edge_id g pairs.(2 * i) pairs.((2 * i) + 1))
        done);
  let result = Edge_set.create g in
  List.iter
    (fun acc ->
      for i = 0 to acc.len - 1 do
        Edge_set.add_id result acc.a.(i)
      done)
    !accs;
  result
