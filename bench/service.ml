(* Resident-service benchmark: query latency under a sustained delta
   stream, and the overload degradation curve.

   Usage:
     dune exec bench/service.exe             4 s steady phase
     dune exec bench/service.exe -- quick    1.5 s steady phase (CI)

   Four phases:

   - steady: an ephemeral service (the shipped default config) takes a
     ~200 deltas/s churn stream from a driver domain while the main
     domain issues route / advert / stats queries in a closed loop.
     Reported: sustained qps, and the p50 / p99 of the service's own
     per-response latency accounting.

   - tcp steady: the same mix through lib/net — one framed TCP
     connection in a closed loop, measuring the full wire round trip.

   - replica catch-up: a cold replica bootstraps from a leader holding
     a fixed number of WAL records (snapshot ship + streamed replay
     through Repair) and the row is the wall time to lag 0.

   - degradation: a deliberately under-provisioned service (capacity-8
     ingest queue, a writer slowed to ~2 ms per batch) is flooded at
     increasing offered rates, each offer paced to its due time.
     Overload must surface as explicit rejections with bounded queue
     depth — never as growing memory — and once the circuit breaker
     opens, as stale-flagged reads. The curve is printed; only the
     steady-phase latency rows go into BENCH_service.json (rejection
     counts are scheduling-dependent and would flake a regression
     gate).

   Writes BENCH_service.json (row -> ns) for scripts/check_bench.py,
   gated in CI with a lenient threshold: service rows measure queue
   round trips across domains on a shared runner, an order of
   magnitude noisier than the single-domain hotpath rows. *)

open Rs_graph
module Service = Rs_serve.Service
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair
module Store = Rs_store.Store
module Wal = Rs_store.Wal
module Repl = Rs_net.Repl

let now = Rs_obs.Obs.now

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Sys.readdir path |> Array.iter (fun n -> rm_rf (Filename.concat path n));
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Same constant-density unit disk model as bench/support.ml. *)
let udg ~seed ~n ~density =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. density) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let quantile sorted q =
  let last = Array.length sorted - 1 in
  sorted.(int_of_float (ceil (q *. float_of_int last)))

(* Cycle through the edge set removing then restoring, so the topology
   (and repair cost) is steady over any horizon. *)
let churn_driver svc g ~period_s ~stop ~accepted () =
  let edges = Graph.edges g in
  let m = Array.length edges in
  let i = ref 0 in
  while not (Atomic.get stop) do
    let u, v = edges.(!i mod m) in
    let op =
      if !i / m mod 2 = 0 then Delta.Remove_edge (u, v) else Delta.Add_edge (u, v)
    in
    (match Service.offer svc [ op ] with
    | Ok () -> Atomic.incr accepted
    | Error _ -> ());
    incr i;
    Unix.sleepf period_s
  done

let steady ~dur ~n rows =
  let g = udg ~seed:4242 ~n ~density:4.0 in
  let svc =
    Service.start Service.default_config
      (Service.Ephemeral { specs = [ Repair.Gdy_k { k = 1 } ]; g })
  in
  let stop = Atomic.make false in
  let accepted = Atomic.make 0 in
  let driver =
    Domain.spawn (churn_driver svc g ~period_s:0.005 ~stop ~accepted)
  in
  let rand = Rand.create 7 in
  let lat = ref [] in
  let count = ref 0 in
  let nn = Graph.n g in
  let t0 = now () in
  while now () -. t0 < dur do
    let q =
      match !count mod 4 with
      | 0 | 1 ->
          Service.Route { src = Rand.int rand nn; dst = Rand.int rand nn }
      | 2 -> Service.Advert (Rand.int rand nn)
      | _ -> Service.Stats
    in
    let r = Service.query svc q in
    (match r.Service.answer with
    | Ok _ -> lat := r.Service.latency_ms :: !lat
    | Error _ -> ());
    incr count
  done;
  let elapsed = now () -. t0 in
  Atomic.set stop true;
  Domain.join driver;
  let st = Service.stop svc in
  let sorted = Array.of_list !lat in
  Array.sort compare sorted;
  let p50 = quantile sorted 0.50 *. 1e6 in
  let p99 = quantile sorted 0.99 *. 1e6 in
  let mean = elapsed *. 1e9 /. float_of_int (max 1 !count) in
  Printf.printf
    "steady (udg%d, %.1f s, %d deltas applied): %.0f qps, route+mixed p50 \
     %.0f us, p99 %.0f us\n"
    n elapsed st.Service.s_seq
    (float_of_int !count /. elapsed)
    (p50 /. 1e3) (p99 /. 1e3);
  if st.Service.s_seq = 0 then
    failwith "service bench: no delta ever applied during the steady phase";
  rows :=
    (Printf.sprintf "service/query_mean/udg%d" n, mean)
    :: (Printf.sprintf "service/query_p50/udg%d" n, p50)
    :: (Printf.sprintf "service/query_p99/udg%d" n, p99)
    :: !rows

(* The same steady mix over the TCP transport: a leader on an
   ephemeral port answers a closed-loop client speaking the framed
   line protocol, so the row measures the full round trip — length
   prefix, CRC, socket, Proto parse — not just the in-process queue
   hop. *)
let tcp_steady ~dur ~n rows =
  let g = udg ~seed:4242 ~n ~density:4.0 in
  let svc =
    Service.start Service.default_config
      (Service.Ephemeral { specs = [ Repair.Gdy_k { k = 1 } ]; g })
  in
  let stop = Atomic.make false in
  let accepted = Atomic.make 0 in
  let driver =
    Domain.spawn (churn_driver svc g ~period_s:0.005 ~stop ~accepted)
  in
  let ld =
    match Repl.lead ~service:svc ~store_dir:None ~host:"127.0.0.1" ~port:0 () with
    | Ok ld -> ld
    | Error e -> failwith ("service bench: tcp lead: " ^ e)
  in
  let fd =
    match
      Repl.connect_query ~host:"127.0.0.1" ~port:(Repl.leader_port ld)
        ~timeout_s:5.0
    with
    | Ok fd -> fd
    | Error e -> failwith ("service bench: tcp connect: " ^ e)
  in
  let rand = Rand.create 7 in
  let nn = Graph.n g in
  let lat = ref [] in
  let count = ref 0 in
  let t0 = now () in
  while now () -. t0 < dur do
    let line =
      match !count mod 4 with
      | 0 | 1 ->
          Printf.sprintf "route %d %d" (Rand.int rand nn) (Rand.int rand nn)
      | 2 -> Printf.sprintf "advert %d" (Rand.int rand nn)
      | _ -> "stats"
    in
    let q0 = now () in
    (match Repl.request fd ~timeout_s:5.0 line with
    | Ok _ -> lat := (now () -. q0) :: !lat
    | Error e -> failwith ("service bench: tcp request: " ^ e));
    incr count
  done;
  let elapsed = now () -. t0 in
  Unix.close fd;
  Atomic.set stop true;
  Domain.join driver;
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  let sorted = Array.of_list !lat in
  Array.sort compare sorted;
  let p50 = quantile sorted 0.50 *. 1e9 in
  let p99 = quantile sorted 0.99 *. 1e9 in
  Printf.printf
    "tcp steady (udg%d, %.1f s): %.0f qps over one framed connection, p50 \
     %.0f us, p99 %.0f us\n"
    n elapsed
    (float_of_int !count /. elapsed)
    (p50 /. 1e3) (p99 /. 1e3);
  rows :=
    (Printf.sprintf "service/tcp_query_p50/udg%d" n, p50)
    :: (Printf.sprintf "service/tcp_query_p99/udg%d" n, p99)
    :: !rows

(* Cold-replica catch-up: snapshot ship plus WAL replay through
   incremental repair until lag 0. The delta count is a constant (the
   quick and full modes agree) so the row is comparable across runs. *)
let replica_catchup ~n ~deltas rows =
  let g = udg ~seed:4242 ~n ~density:4.0 in
  let root = "_bench_repl_scratch" in
  (try rm_rf root with Unix.Unix_error _ | Sys_error _ -> ());
  let ldir = Filename.concat root "leader" in
  let rdir = Filename.concat root "replica" in
  let store =
    Store.create ~policy:Wal.Always ~dir:ldir ~specs:[ Repair.Gdy_k { k = 1 } ] g
  in
  let svc =
    Service.start { Service.default_config with batch_max = 1 } (Service.Durable store)
  in
  let ld =
    match
      Repl.lead ~service:svc ~store_dir:(Some ldir) ~host:"127.0.0.1" ~port:0 ()
    with
    | Ok ld -> ld
    | Error e -> failwith ("service bench: replica lead: " ^ e)
  in
  let edges = Graph.edges g in
  if Array.length edges < deltas then
    failwith "service bench: graph too small for the catch-up delta count";
  for i = 0 to deltas - 1 do
    let u, v = edges.(i) in
    let rec offer () =
      match Service.offer svc [ Delta.Remove_edge (u, v) ] with
      | Ok () -> ()
      | Error _ ->
          Unix.sleepf 0.002;
          offer ()
    in
    offer ()
  done;
  ignore (Service.wait_idle svc);
  let t0 = now () in
  let r =
    match
      Repl.follow ~service_config:Service.default_config ~dir:rdir
        ~host:"127.0.0.1" ~port:(Repl.leader_port ld) ()
    with
    | Ok r -> r
    | Error e -> failwith ("service bench: follow: " ^ e)
  in
  let caught_up () =
    Repl.lag r = 0 && Service.ingested_seq (Repl.replica_service r) >= deltas
  in
  let deadline = now () +. 60.0 in
  while (not (caught_up ())) && now () < deadline do
    Unix.sleepf 0.002
  done;
  let dt = now () -. t0 in
  if not (caught_up ()) then failwith "service bench: replica catch-up timed out";
  ignore (Repl.stop_replica r);
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  (try rm_rf root with Unix.Unix_error _ | Sys_error _ -> ());
  Printf.printf
    "replica catch-up (udg%d, %d WAL records behind): %.1f ms from empty \
     directory to lag 0\n"
    n deltas (dt *. 1e3);
  rows := (Printf.sprintf "service/replica_catchup/udg%d" n, dt *. 1e9) :: !rows

(* Offered-rate sweep against a tiny queue and a slowed writer. *)
let degradation ~n =
  let g = udg ~seed:4242 ~n ~density:4.0 in
  let capacity = 8 in
  let cfg =
    { Service.default_config with
      ingest_capacity = capacity;
      batch_max = 4;
      repair_budget_s = 0.01;
      breaker_trips = 2;
      open_backlog = 4;
      before_apply = Some (fun _ _ -> Unix.sleepf 0.002) }
  in
  let svc =
    Service.start cfg
      (Service.Ephemeral { specs = [ Repair.Gdy_k { k = 1 } ]; g })
  in
  let edges = Graph.edges g in
  let m = Array.length edges in
  Printf.printf "\ndegradation curve (udg%d, ingest capacity %d, ~2 ms/batch writer):\n"
    n capacity;
  Printf.printf "  %-12s | %-10s | %-10s | %-10s | %-9s | %s\n" "offered/s" "sent/s"
    "accepted/s" "rejected" "max queue" "stale reads";
  let saw_rejection = ref false and depth_ok = ref true in
  List.iter
    (fun rate ->
      let window = 0.4 in
      let period = 1.0 /. float_of_int rate in
      let acc = ref 0 and rej = ref 0 and max_depth = ref 0 and stale = ref 0 in
      let i = ref 0 in
      let t0 = now () in
      (* offer i is due at t0 + i * period: sleep to within 1 ms of it,
         then spin (sleepf is coarser than the period at high rates). A
         loop that falls behind offers at once and catches up. *)
      let rec wait_until due =
        let left = due -. now () in
        if left > 0.001 then begin
          Unix.sleepf (left -. 0.001);
          wait_until due
        end
        else if left > 0. then wait_until due
      in
      while float_of_int !i *. period < window && now () -. t0 < window do
        wait_until (t0 +. (float_of_int !i *. period));
        let u, v = edges.(!i mod m) in
        let op =
          if !i / m mod 2 = 0 then Delta.Remove_edge (u, v)
          else Delta.Add_edge (u, v)
        in
        (match Service.offer svc [ op ] with
        | Ok () -> incr acc
        | Error _ -> incr rej);
        incr i;
        let st = Service.status svc in
        max_depth := max !max_depth st.Service.s_queue;
        (* a read probe rides along: under a lagging writer these come
           back stale-flagged — degraded, never wrong or blocked *)
        if !i mod 40 = 0 then begin
          let r = Service.query ~deadline_s:0.5 svc Service.Stats in
          if r.Service.stale then incr stale
        end
      done;
      if !rej > 0 then saw_rejection := true;
      if !max_depth > capacity then depth_ok := false;
      (* sent/s falls short of offered/s only if offering itself cannot
         keep the schedule *)
      Printf.printf "  %-12d | %-10.0f | %-10.0f | %-10s | %-9d | %d\n" rate
        (float_of_int (!acc + !rej) /. window)
        (float_of_int !acc /. window)
        (Printf.sprintf "%d (%.0f%%)" !rej
           (100.0 *. float_of_int !rej /. float_of_int (max 1 (!acc + !rej))))
        !max_depth !stale)
    [ 500; 2_000; 8_000; 32_000 ];
  let st = Service.stop svc in
  Printf.printf
    "  drained at seq %d (breaker saw %s); overload surfaced as explicit \
     rejections: %b, queue stayed within capacity: %b\n"
    st.Service.s_seq st.Service.s_breaker !saw_rejection !depth_ok;
  if not !saw_rejection then
    failwith "service bench: flood produced no explicit rejection";
  if not !depth_ok then
    failwith "service bench: ingest queue exceeded its configured capacity"

let () =
  let quick = Array.exists (( = ) "quick") Sys.argv in
  let rows = ref [] in
  steady ~dur:(if quick then 1.5 else 4.0) ~n:300 rows;
  tcp_steady ~dur:(if quick then 1.0 else 3.0) ~n:300 rows;
  replica_catchup ~n:300 ~deltas:128 rows;
  degradation ~n:300;
  let rows = List.sort compare !rows in
  let json =
    Rs_obs.Json.Obj (List.map (fun (k, v) -> (k, Rs_obs.Json.Float v)) rows)
  in
  let oc = open_out "BENCH_service.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Rs_obs.Json.to_string ~pretty:true json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_service.json (%d benchmarks)\n" (List.length rows)
