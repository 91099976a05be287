open Rs_graph
module Obs = Rs_obs.Obs

(* Batched construction: roots are processed [Msbfs.width] at a time
   through the bit-parallel multi-source BFS, batches are fanned over
   domains by the work-stealing driver, and every domain accumulates
   canonical edge ids in a flat int array merged into one Edge_set at
   the end — no O(n) state per root, no per-tree Edge_set. This is
   what takes construction from n = 2000 to n = 10^5..10^6.
   [Remote_spanner]'s entry points (domains = 1) and
   [Rs_dynamic.Repair] (per-root trees via [iter_trees]) route here;
   the per-root wrappers of [Dom_tree]/[Dom_tree_k] run the same emit
   cores one root at a time.

   Edge sets are identical to the per-root sequential reference for
   any domain count or root order: each root's tree depends only on
   its ball, tie-breaks are by vertex id everywhere, and the emit
   cores are the same code the per-root wrappers run. *)

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
   graph, no coordinates needed. The order array doubles as the BFS
   queue. Deliberately not recorded as bfs/runs: it is scheduling,
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

(* Per-domain state. Distance and membership arrays are
   generation-stamped so per-root reset is O(1); [edges] packs the
   current root's emitted pairs flat. *)
type ctx = {
  ms : Msbfs.t;
  dist : int array;
  dstamp : int array;
  mutable dgen : int;
  memb : int array; (* tree membership, stamped per root *)
  mutable mgen : int;
  dead : Bfs.Marks.t; (* MIS removals *)
  edges : buf;
}

let create_ctx n =
  {
    ms = Msbfs.create ();
    dist = Array.make n 0;
    dstamp = Array.make n 0;
    dgen = 0;
    memb = Array.make n 0;
    mgen = 0;
    dead = Bfs.Marks.create ();
    edges = buf ();
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

(* One root's tree, emitted from its Msbfs slot and handed to [sink]. *)
let process_slot g ctx strat s ~sink =
  let root = Msbfs.source ctx.ms s in
  Obs.incr c_trees;
  ctx.mgen <- ctx.mgen + 1;
  let mgen = ctx.mgen and memb = ctx.memb in
  memb.(root) <- mgen;
  ctx.edges.len <- 0;
  let mem v = memb.(v) = mgen in
  let add p c =
    push ctx.edges p;
    push ctx.edges c;
    memb.(c) <- mgen
  in
  (match strat with
  | Gdy_k { k } ->
      let sphere = (Msbfs.levels ctx.ms s ~max_dist:2).(2) in
      Dom_tree_k.gdy_k_emit g ~k ~sphere root ~add
  | Gdy { r; beta } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr g in
      let levels = Msbfs.levels ctx.ms s ~max_dist:(r + beta) in
      Dom_tree.gdy_emit g ~r ~beta ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
  | Mis { r } ->
      fill_dist ctx s;
      let off, nbr = Graph.csr g in
      let levels = Msbfs.levels ctx.ms s ~max_dist:r in
      Bfs.Marks.clear ctx.dead;
      Dom_tree.mis_emit g ~r ~levels ~parent_of:(parent_of_csr off nbr ctx) ~mem ~add
        ~dead_mem:(Bfs.Marks.mem ctx.dead) ~dead_add:(Bfs.Marks.set ctx.dead)
  | Mis_k { k } ->
      let sphere = (Msbfs.levels ctx.ms s ~max_dist:2).(2) in
      Dom_tree_k.mis_k_emit g ~k ~sphere root ~mem ~add);
  sink root ctx.edges.a (ctx.edges.len / 2)

(* The engine: the roots are cut into [Msbfs.width]-wide batches fanned
   over [domains], and each root's emitted pairs go to the sink
   [make_sink ()] built once per worker (so sinks may hold per-domain
   state). *)
let run ~domains g strat roots make_sink =
  let n = Graph.n g in
  let nroots = Array.length roots in
  let width = Msbfs.width in
  drive ~chunk:1 ~n:((nroots + width - 1) / width) ~domains
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
              let blo = b * width in
              let batch = Array.sub roots blo (min width (nroots - blo)) in
              Msbfs.run ~radius:(radius_of strat) ctx.ms g batch;
              for s = 0 to Array.length batch - 1 do
                process_slot g ctx strat s ~sink
              done;
              items := !items + Array.length batch
            done;
            loop ()
      in
      loop ();
      !items)

let iter_trees g strat roots f =
  validate strat;
  run ~domains:1 g strat roots (fun () -> f)

let build ?domains g strat =
  validate strat;
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let domains = if Graph.n g < 64 then 1 else domains in
  (* one flat id accumulator per sink, merged once every domain joined *)
  let accs = ref [] and mutex = Mutex.create () in
  run ~domains g strat (locality_order g) (fun () ->
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
