open Rs_graph
open Rs_dynamic
module Store = Rs_store.Store
module Wal = Rs_store.Wal
open Rs_store.Harness

let degraded svc =
  match (Service.status svc).Service.s_state with
  | Service.Degraded _ -> true
  | Service.Serving | Service.Rebuilding -> false

(* {1 Concurrent client load} — real reader traffic during every
   scenario; a [Bad_request] or a hung await is a harness failure *)

type clients = {
  cl_served : int Atomic.t;
  cl_stale : int Atomic.t;
  cl_bad_m : Mutex.t;
  mutable cl_bad : string list;
  cl_stop : bool Atomic.t;
  mutable cl_domains : unit Domain.t array;
}

let spawn_clients svc ~seed ~n ~count =
  let cl =
    { cl_served = Atomic.make 0; cl_stale = Atomic.make 0; cl_bad_m = Mutex.create ();
      cl_bad = []; cl_stop = Atomic.make false; cl_domains = [||] }
  in
  cl.cl_domains <-
    Array.init count (fun i ->
        Domain.spawn (fun () ->
            let rand = Rand.create (seed + (7919 * (i + 1))) in
            while not (Atomic.get cl.cl_stop) do
              let q =
                match Rand.int rand 4 with
                | 0 -> Service.Stats
                | 1 -> Service.Status
                | 2 -> Service.Route { src = Rand.int rand n; dst = Rand.int rand n }
                | _ -> Service.Advert (Rand.int rand n)
              in
              let r = Service.query ~deadline_s:2.0 svc q in
              (match r.Service.answer with
              | Ok _ ->
                  Atomic.incr cl.cl_served;
                  if r.Service.stale then Atomic.incr cl.cl_stale
              | Error (Service.Timeout | Service.Overloaded _) -> ()
              | Error (Service.Bad_request m) ->
                  Mutex.lock cl.cl_bad_m;
                  cl.cl_bad <- m :: cl.cl_bad;
                  Mutex.unlock cl.cl_bad_m);
              Unix.sleepf 0.001
            done));
  cl

let join_clients cl =
  Atomic.set cl.cl_stop true;
  Array.iter Domain.join cl.cl_domains;
  match cl.cl_bad with
  | [] -> (Atomic.get cl.cl_served, Atomic.get cl.cl_stale)
  | m :: _ ->
      failwith
        (Printf.sprintf "clients saw %d Bad_request responses (e.g. %s)"
           (List.length cl.cl_bad) m)

let tallies (served, stale) (st : Service.status) =
  [ ("queries", served); ("stale", stale); ("rejections", st.Service.s_rejected);
    ("failovers", st.Service.s_failovers) ]

(* {1 Scenarios} *)

(* The writer dies after the WAL append, before repair and
   publication. Readers must keep answering from the last view;
   recovery from a directory copy must land exactly on the crash
   sequence number and verify. *)
let kill_writer_mid_repair ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "kill-writer-mid-repair" in
  rm_rf base;
  let store = Store.create ~policy:Wal.Always ~segment_bytes:512 ~dir:base ~specs g0 in
  let crash_at = 1 + (batches / 2) in
  let crashed = Atomic.make false in
  let hook seq delta =
    if seq >= crash_at && not (Atomic.get crashed) then begin
      Atomic.set crashed true;
      (* the delta reached the log; the repair never ran *)
      ignore (Store.append ~repair:false store delta);
      failwith "chaos: writer killed mid-repair"
    end
  in
  let cfg =
    { Service.default_config with
      readers = 2; batch_max = 1; watchdog_s = 0.; before_apply = Some hook }
  in
  let svc = Service.start cfg (Service.Durable store) in
  let cl = spawn_clients svc ~seed:(17 * n) ~n ~count:2 in
  let expected = Array.make (batches + 1) g0 in
  (try
     for i = 1 to batches do
       let d = random_delta rand expected.(i - 1) in
       expected.(i) <- Delta.apply expected.(i - 1) d;
       (match Service.offer svc d with Ok () -> () | Error _ -> raise Exit);
       wait_until ~what:"delta ingest (or writer death)" (fun () ->
           Service.ingested_seq svc >= i || degraded svc);
       if degraded svc then raise Exit
     done
   with Exit -> ());
  if not (Atomic.get crashed) then failwith "the kill hook never fired";
  wait_until ~what:"degraded state after writer death" (fun () -> degraded svc);
  (match (Service.query ~deadline_s:2.0 svc Service.Stats).Service.answer with
  | Ok _ -> ()
  | Error _ -> failwith "degraded service stopped answering reads");
  (match Service.offer svc [ Delta.Add_edge (0, 1) ] with
  | Error _ -> ()
  | Ok () -> failwith "degraded service accepted a delta it can never apply");
  let load = join_clients cl in
  Service.kill svc;
  let copy = base ^ "-recover" in
  copy_dir base copy;
  let st2, info = Store.recover ~policy:Wal.Always ~verify:true ~dir:copy () in
  if info.Store.last_seq <> crash_at then
    failwith
      (Printf.sprintf "recovered to seq %d, the crash landed at %d"
         info.Store.last_seq crash_at);
  if not (Graph.equal (Store.graph st2) expected.(crash_at)) then
    failwith "recovered topology diverges from the reference";
  (* the recovered store must serve and ingest again *)
  let svc2 =
    Service.start
      { Service.default_config with readers = 1; batch_max = 1; watchdog_s = 0. }
      (Service.Durable st2)
  in
  let d = random_delta rand expected.(crash_at) in
  (match Service.offer svc2 d with
  | Ok () -> ()
  | Error e -> failwith ("restarted service rejected a delta: " ^ e));
  wait_until ~what:"post-recovery ingest" (fun () ->
      Service.ingested_seq svc2 >= crash_at + 1);
  wait_until ~what:"post-recovery publication" (fun () ->
      Service.view_seq svc2 = Service.ingested_seq svc2);
  let g_fin, spanners = Service.peek svc2 in
  Repair.check ~what:"kill-writer-mid-repair" g_fin spanners;
  let st = Service.stop svc2 in
  tallies load st

(* SIGKILL without a clean close, then a torn WAL tail: recovery keeps
   the verified prefix; re-offering the lost delta converges back to
   the reference topology. *)
let torn_wal_restart ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "torn-wal-restart" in
  rm_rf base;
  let store = Store.create ~policy:Wal.Always ~segment_bytes:512 ~dir:base ~specs g0 in
  let cfg =
    { Service.default_config with readers = 2; batch_max = 1; watchdog_s = 0. }
  in
  let svc = Service.start cfg (Service.Durable store) in
  let cl = spawn_clients svc ~seed:(29 * n) ~n ~count:2 in
  let expected = Array.make (batches + 1) g0 in
  let deltas = Array.make (batches + 1) [] in
  for i = 1 to batches do
    let d = random_delta rand expected.(i - 1) in
    deltas.(i) <- d;
    expected.(i) <- Delta.apply expected.(i - 1) d;
    (match Service.offer svc d with
    | Ok () -> ()
    | Error e -> failwith ("offer rejected: " ^ e));
    wait_until ~what:"delta ingest" (fun () -> Service.ingested_seq svc >= i)
  done;
  let load = join_clients cl in
  Service.kill svc;
  (* Wal.Always means every record reached the kernel before the kill *)
  let copy = base ^ "-recover" in
  copy_dir base copy;
  let scan = Wal.scan_dir ~dir:copy ~after_seq:0 in
  (match scan.Wal.truncation with
  | Some tr ->
      failwith (Format.asprintf "pristine WAL already damaged: %a" Wal.pp_truncation tr)
  | None -> ());
  let last =
    match List.rev scan.Wal.records with
    | r :: _ -> r
    | [] -> failwith "pristine WAL holds no records"
  in
  if last.Wal.seq <> batches then
    failwith (Printf.sprintf "WAL tail is seq %d, expected %d" last.Wal.seq batches);
  (* tear the tail record mid-header *)
  truncate_file last.Wal.file (last.Wal.offset + 8);
  let st2, info = Store.recover ~policy:Wal.Always ~verify:true ~dir:copy () in
  if info.Store.truncated = None then failwith "recovery did not report the torn tail";
  if info.Store.last_seq <> batches - 1 then
    failwith
      (Printf.sprintf "recovered to seq %d, the verified prefix ends at %d"
         info.Store.last_seq (batches - 1));
  if not (Graph.equal (Store.graph st2) expected.(batches - 1)) then
    failwith "recovered topology diverges from the reference prefix";
  (* restart, re-offer the lost delta, converge to the reference *)
  let svc2 =
    Service.start
      { Service.default_config with readers = 1; batch_max = 1; watchdog_s = 0. }
      (Service.Durable st2)
  in
  (match Service.offer svc2 deltas.(batches) with
  | Ok () -> ()
  | Error e -> failwith ("restarted service rejected the lost delta: " ^ e));
  wait_until ~what:"re-offered delta" (fun () -> Service.ingested_seq svc2 >= batches);
  wait_until ~what:"post-restart publication" (fun () ->
      Service.view_seq svc2 = Service.ingested_seq svc2);
  let g_fin, spanners = Service.peek svc2 in
  if not (Graph.equal g_fin expected.(batches)) then
    failwith "restarted service did not converge back to the reference topology";
  Repair.check ~what:"torn-wal-restart" g_fin spanners;
  let st = Service.stop svc2 in
  tallies load st

(* A tiny ingest queue, a slowed writer and a forced-escalation repair
   config under a flood: overload must surface as explicit rejections
   and stale-flagged reads, never unbounded memory, and the drained
   state must verify. *)
let queue_saturation ~rand ~specs ~n ~batches:_ ~dir:_ =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let capacity = 4 in
  (* The breaker's log-and-defer window is where stale reads live: a
     deferred batch is acknowledged but not yet published. A fast
     writer can fold that window before any query lands in it, so once
     the breaker is open and a deferred batch stands, the writer waits
     here until the harness has caught a stale read and releases it. *)
  let live = Atomic.make None and release = Atomic.make false in
  let hook _ _ =
    Unix.sleepf 0.004;
    match Atomic.get live with
    | Some svc ->
        let s = Service.status svc in
        if s.Service.s_breaker = "open" && s.Service.s_ingested > s.Service.s_seq then
          while not (Atomic.get release) do
            Unix.sleepf 0.002
          done
    | None -> ()
  in
  let cfg =
    { Service.default_config with
      readers = 2; ingest_capacity = capacity; batch_max = 2;
      repair_budget_s = 1e-6 (* every repair is over budget *);
      breaker_trips = 2; open_backlog = 4; watchdog_s = 0.;
      dirty_radius = Some 0 (* under-estimated locality: fringe trees change, the gate trips *);
      before_apply = Some hook }
  in
  let svc = Service.start cfg (Service.Ephemeral { specs; g = g0 }) in
  Atomic.set live (Some svc);
  (* a failing check must not leave the writer parked *)
  Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
  let cl = spawn_clients svc ~seed:(43 * n) ~n ~count:2 in
  let floods = 300 in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to floods do
    (* ops generated against g0 stay valid whatever the live graph is *)
    match Service.offer svc (random_delta rand g0) with
    | Ok () -> incr accepted
    | Error _ -> incr rejected
  done;
  if !rejected = 0 then failwith "the flood produced no rejections";
  if !accepted = 0 then failwith "the flood was entirely rejected";
  let depth = (Service.status svc).Service.s_queue in
  if depth > capacity then
    failwith (Printf.sprintf "queue depth %d exceeds capacity %d" depth capacity);
  (* catch a stale read in the act, offering more deltas so the writer
     reaches a deferred batch however far it got through the flood *)
  let saw_stale = ref false in
  (try
     wait_until ~timeout:30.0 ~what:"a stale-flagged read" (fun () ->
         ignore (Service.offer svc (random_delta rand g0));
         let r = Service.query ~deadline_s:2.0 svc Service.Stats in
         (match r.Service.answer with
         | Ok _ -> if r.Service.stale then saw_stale := true
         | Error _ -> ());
         !saw_stale)
   with Failure _ -> ());
  Atomic.set release true;
  wait_until ~timeout:60.0 ~what:"drain after the flood" (fun () ->
      (Service.status svc).Service.s_queue = 0
      && Service.ingested_seq svc = Service.view_seq svc);
  let load = join_clients cl in
  let st = Service.stop svc in
  if not (!saw_stale || st.Service.s_stale_reads > 0 || snd load > 0)
  then failwith "no stale-flagged read was observed under overload";
  let g_fin, spanners = Service.peek svc in
  Repair.check ~what:"queue-saturation" g_fin spanners;
  tallies load { st with Service.s_rejected = max st.Service.s_rejected !rejected }

(* The writer blocks forever mid-batch: the watchdog must bump the
   epoch, fail over to a rebuilt writer, and the service must resume
   ingesting — ending verified, with exactly one failover. *)
let wedged_writer_failover ~rand ~specs ~n ~batches ~dir:_ =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let release = Atomic.make false in
  let calls = Atomic.make 0 in
  let wedge_at = 1 + (batches / 2) in
  (* Keyed on the hook's call count, not its seq: with batch_max = 1
     call i carries offer i, but the deltas are drawn against g0, and
     one that is quiescent on the live graph never advances the seq. *)
  let hook _ _ =
    if 1 + Atomic.fetch_and_add calls 1 = wedge_at then
      (* wedge until the harness releases us; the epoch fence then
         makes every later action of this writer a no-op *)
      while not (Atomic.get release) do
        Unix.sleepf 0.002
      done
  in
  let cfg =
    { Service.default_config with
      readers = 2; batch_max = 1; watchdog_s = 0.25; before_apply = Some hook }
  in
  let svc = Service.start cfg (Service.Ephemeral { specs; g = g0 }) in
  let cl = spawn_clients svc ~seed:(61 * n) ~n ~count:2 in
  for i = 1 to batches do
    let d = random_delta rand g0 in
    (match Service.offer svc d with
    | Ok () -> ()
    | Error e -> failwith ("offer rejected: " ^ e));
    if i = wedge_at then
      wait_until ~what:"watchdog failover" (fun () ->
          (Service.status svc).Service.s_failovers >= 1)
    else wait_until ~what:"delta ingest" (fun () -> Service.idle svc)
  done;
  wait_until ~what:"post-failover publication" (fun () ->
      Service.view_seq svc = Service.ingested_seq svc);
  let load = join_clients cl in
  let st = Service.stop svc in
  if st.Service.s_failovers <> 1 then
    failwith (Printf.sprintf "%d failovers recorded, expected exactly 1" st.Service.s_failovers);
  if st.Service.s_epoch <> 2 then
    failwith (Printf.sprintf "epoch %d after one failover, expected 2" st.Service.s_epoch);
  let g_fin, spanners = Service.peek svc in
  Repair.check ~what:"wedged-writer-failover" g_fin spanners;
  Atomic.set release true;
  tallies load st

(* {1 The plan} *)

let scenarios =
  [ ("kill-writer-mid-repair", kill_writer_mid_repair); ("torn-wal-restart", torn_wal_restart);
    ("queue-saturation", queue_saturation); ("wedged-writer-failover", wedged_writer_failover) ]

let names = List.map fst scenarios

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>chaos scenarios: %d (%d queries answered, %d stale-flagged, %d rejections, %d \
     failovers)%a@]"
    r.scenarios (count r "queries") (count r "stale") (count r "rejections")
    (count r "failovers") pp_failures r

let run ?(specs = [ Repair.Gdy_k { k = 1 }; Repair.Mis { r = 2 } ]) ?only ~seed ~n
    ~batches ~dir () =
  (* queue-saturation needs a graph its flood can keep the breaker busy
     on: at n = 2 it never sees a stale read, and below 16 it misses one
     on some seeds *)
  Rs_store.Harness.run ~suite:"Chaos.run" ~min_n:16 ~min_batches:4 ?only ~seed ~n ~batches
    ~dir
    (fun rand ->
      List.map (fun (name, f) -> (name, fun () -> f ~rand ~specs ~n ~batches ~dir)) scenarios)
