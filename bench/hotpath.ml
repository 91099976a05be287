(* Hot-path microbenchmarks gating the CSR / scratch / lazy-greedy /
   work-stealing overhaul and the batched/sharded scaling layer.

   Usage:
     dune exec bench/hotpath.exe             n = 300..2000 full rows,
                                             n = 10^4, 10^5 reduced rows
     dune exec bench/hotpath.exe -- quick    n = 300 only (CI)
     dune exec bench/hotpath.exe -- scale    n = 10^3..10^5 reduced rows
                                             (CI scaling-exponent gate)
     dune exec bench/hotpath.exe -- huge     scale + n = 10^6 (manual)

   Writes BENCH_hotpath.json (benchmark name -> ns/op) to the working
   directory. scripts/check_bench.py compares a fresh run against the
   committed baseline, fails CI on a >25% regression, and (on the
   scale run) fits log-log scaling exponents per row family; see
   docs/PERFORMANCE.md for how to read the numbers. *)

open Rs_graph
open Rs_core

let now = Rs_obs.Obs.now

(* Same constant-density unit disk model as bench/support.ml (kept
   local: dune executables in one directory cannot share modules). *)
let udg ~seed ~n ~density =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. density) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

(* Wall-clock ns/op, minimum over timed batches: one warm-up call, a
   calibration pass sizing a batch at ~min_time/8, then batches until
   both bounds are met, reporting the fastest per-batch rate. Timing
   noise on a busy box is strictly additive (preemption, GC slices,
   frequency dips all make a batch slower, never faster), so the min
   is the stable estimator of the clean-machine rate — a mean or even
   a median over one run lets a load episode inflate a µs-scale row
   past the 25% regression gate. Coarser than Bechamel's OLS but
   robust for the multi-second union/verify runs at n = 2000. *)
let time_ns ?(min_time = 0.2) ?(min_reps = 3) f =
  (* Warm-up: at least two calls plus ~min_time/4 of wall time. A
     single cold call is not enough on the tree-construction rows —
     the first timed batch still paid for lazily-grown scratch arrays
     and a cold branch predictor, which once left the committed
     domtree/gdy-r3b1/udg300 baseline ~15% above its steady state. *)
  ignore (Sys.opaque_identity (f ()));
  let tw = now () in
  ignore (Sys.opaque_identity (f ()));
  while now () -. tw < min_time /. 4.0 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let slot = min_time /. 8.0 in
  let batch = ref 0 in
  let t0 = now () in
  while now () -. t0 < slot || !batch = 0 do
    ignore (Sys.opaque_identity (f ()));
    incr batch
  done;
  let batch = !batch in
  let rate () =
    let t0 = now () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) *. 1e9 /. float_of_int batch
  in
  let best = ref (rate ()) and n = ref 1 in
  let t1 = now () in
  while now () -. t1 < min_time || !n < min_reps do
    best := Float.min !best (rate ());
    incr n
  done;
  !best

let human ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

(* The reduced tier runs at every size; the full tier (per-root
   unions, verify, repair, store, obs overhead) only at the classic
   n <= 2000 sizes — at 10^5 a per-root union or exhaustive verify
   would take minutes and show nothing the sharded rows don't. Rows
   at n > 2000 use a smaller timing budget (min_time 0.05, 2 reps):
   each op already runs tens of milliseconds to seconds, so the min
   estimator stabilizes with far fewer calls. *)
let bench_size rows ~seen ~tier ~n =
  let slow = n > 2000 in
  let g = udg ~seed:4242 ~n ~density:4.0 in
  let tag name = Printf.sprintf "%s/udg%d" name n in
  let add name f =
    let name = tag name in
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      let min_time = if slow then 0.05 else 0.2 in
      let min_reps = if slow then 2 else 3 in
      rows := (name, time_ns ~min_time ~min_reps f) :: !rows
    end
  in
  (* ---- reduced tier: the rows the scaling-exponent gate fits ---- *)
  let scratch = Bfs.Scratch.create () in
  add "bfs/dist" (fun () -> Bfs.dist g 0);
  add "bfs/scratch_run" (fun () -> Bfs.Scratch.run scratch g 0);
  let ms = Msbfs.create () in
  let srcs = Array.init (min Msbfs.width n) (fun i -> i) in
  add "msbfs/batch62" (fun () -> Msbfs.run ms g srcs);
  add "domtree/gdy-r3b1" (fun () -> Dom_tree.gdy ~scratch g ~r:3 ~beta:1 0);
  add "domtree/gdy_k2" (fun () -> Dom_tree_k.gdy_k ~scratch g ~k:2 0);
  add "build/exact-sharded" (fun () -> Sharded.build g (Sharded.Gdy_k { k = 1 }));
  add "build/gdy-sharded" (fun () -> Sharded.build g (Sharded.Gdy { r = 3; beta = 1 }));
  (* the repair state's full build: the same engine, plus per-root
     tree storage and edge-id refcounts *)
  add "repair/init" (fun () -> Rs_dynamic.Repair.init (Rs_dynamic.Repair.Gdy_k { k = 1 }) g);
  let text = Graph_io.to_string g in
  let bin = Graph_io.to_binary_string g in
  add "io/to-text" (fun () -> Graph_io.to_string g);
  add "io/to-binary" (fun () -> Graph_io.to_binary_string g);
  add "io/load-text" (fun () -> Graph_io.of_string text);
  add "io/load-binary" (fun () -> Graph_io.of_binary_string bin);
  if tier = `Full then begin
  add "domtree/mis-r3" (fun () -> Dom_tree.mis ~scratch g ~r:3 0);
  add "union/exact-seq" (fun () -> Remote_spanner.exact_distance g);
  add "union/exact-par4" (fun () -> Sharded.build ~domains:4 g (Sharded.Gdy_k { k = 1 }));
  let h = Remote_spanner.exact_distance g in
  add "verify/seq" (fun () -> Verify.is_remote_spanner g h ~alpha:1.0 ~beta:0.0);
  add "verify/par4" (fun () ->
      Parallel.is_remote_spanner ~domains:4 g h ~alpha:1.0 ~beta:0.0);
  (* Incremental repair: remove a batch of spread-out edges, then
     restore them (state cycles back, so the benchmark is steady).
     Compare against union/exact-seq, the from-scratch rebuild of the
     same (1,0) spanner. *)
  let module D = Rs_dynamic.Delta in
  let module R = Rs_dynamic.Repair in
  let st = R.init (R.Gdy_k { k = 1 }) g in
  let edges = Graph.edges g in
  let m = Array.length edges in
  let add_repair name size =
    let size = max 1 size in
    let step = max 1 (m / size) in
    let pairs = List.init size (fun i -> edges.(i * step)) in
    let removals = List.map (fun (u, v) -> D.Remove_edge (u, v)) pairs in
    let restores = List.map (fun (u, v) -> D.Add_edge (u, v)) pairs in
    add name (fun () ->
        ignore (R.apply st removals);
        ignore (R.apply st restores))
  in
  add_repair "repair/delta1" 1;
  add_repair "repair/delta-n100" (n / 100);
  add_repair "repair/delta-n10" (n / 10);
  (* Durable-store load fast path: parsing the text format (split,
     int_of_string, sort inside Graph.make) against decoding the
     binary snapshot (CRC + Graph.of_canonical's O(n+m) fill). The
     snapshot here carries the graph only, so the two rows load the
     same information; check_bench.py gates the ratio staying >= 10x
     at n = 2000 via --min-ratio. *)
  let module Snapshot = Rs_store.Snapshot in
  let text = Graph_io.to_string g in
  let snap = Snapshot.to_string { Snapshot.seq = 0; graph = g; spanners = [] } in
  add "store/load-text" (fun () -> Graph_io.of_string text);
  add "store/load-snap" (fun () -> Snapshot.of_string snap);
  (* Observability self-overhead: the same instrumented hot path with
     the registry off and on. check_bench.py --max-overhead gates the
     on/off ratio (sharded counters and log-bucketed histograms should
     cost well under 5%). The two sides are timed ALTERNATING within
     one block — timing them as two separate time_ns blocks lets
     clock/GC drift between the blocks masquerade as overhead (easily
     ±10% at 3 reps of a 70ms op, swamping the real 1-3% signal). *)
  let module Obs = Rs_obs.Obs in
  let f_off () = ignore (Sys.opaque_identity (Remote_spanner.exact_distance g)) in
  let f_on () =
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () -> ignore (Sys.opaque_identity (Remote_spanner.exact_distance g)))
  in
  f_off ();
  f_on ();
  let off_ts = ref [] and on_ts = ref [] and reps = ref 0 in
  let t_start = now () in
  while now () -. t_start < 0.8 || !reps < 8 do
    let t0 = now () in
    f_off ();
    let t1 = now () in
    f_on ();
    off_ts := (t1 -. t0) :: !off_ts;
    on_ts := (now () -. t1) :: !on_ts;
    incr reps
  done;
  (* Report the per-side minimum: the alternation above gives both
     sides equal exposure to any load episode, and the min of dozens
     of reps is each side's clean-window rate (timing noise only adds
     time). A mean or median of either side can read a spurious ±5% —
     swamping the real 1-3% instrumentation cost — when contention
     spans several consecutive reps. *)
  let best ts = List.fold_left Float.min Float.infinity ts *. 1e9 in
  rows := (tag "obs/exact-off", best !off_ts) :: !rows;
  rows := (tag "obs/exact-on", best !on_ts) :: !rows
  end

let () =
  let has a = Array.exists (( = ) a) Sys.argv in
  let plan =
    if has "quick" then [ (300, `Full) ]
    else if has "scale" then
      [ (1_000, `Reduced); (10_000, `Reduced); (100_000, `Reduced) ]
    else if has "huge" then
      [ (1_000, `Reduced); (10_000, `Reduced); (100_000, `Reduced);
        (1_000_000, `Reduced) ]
    else
      [ (300, `Full); (1_000, `Full); (2_000, `Full); (10_000, `Reduced);
        (100_000, `Reduced) ]
  in
  let rows = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter (fun (n, tier) -> bench_size rows ~seen ~tier ~n) plan;
  let rows = List.sort compare !rows in
  Printf.printf "%-28s | %s\n" "benchmark" "time/op";
  print_endline (String.make 42 '-');
  List.iter (fun (name, ns) -> Printf.printf "%-28s | %s\n" name (human ns)) rows;
  let json =
    Rs_obs.Json.Obj (List.map (fun (name, ns) -> (name, Rs_obs.Json.Float ns)) rows)
  in
  let oc = open_out "BENCH_hotpath.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Rs_obs.Json.to_string ~pretty:true json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_hotpath.json (%d benchmarks)\n" (List.length rows)
