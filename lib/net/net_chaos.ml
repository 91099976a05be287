open Rs_graph
open Rs_dynamic
module Service = Rs_serve.Service
module Store = Rs_store.Store
module Wal = Rs_store.Wal
module Snapshot = Rs_store.Snapshot
module Chaos = Rs_serve.Chaos
open Rs_store.Harness

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {1 Gates} *)

(* Both directories must recover to the same state; the snapshot
   encoding is deterministic, so equal states have equal bytes. *)
let gate_byte_identical ~what dir_a dir_b =
  let recover_value suffix src =
    let copy = src ^ suffix in
    copy_dir src copy;
    let st, info = Store.recover ~policy:Wal.Always ~verify:false ~dir:copy () in
    let v = Snapshot.to_string (Store.snapshot_value st) in
    Store.close st;
    (info.Store.last_seq, v)
  in
  let sa, va = recover_value "-cmp-a" dir_a in
  let sb, vb = recover_value "-cmp-b" dir_b in
  if sa <> sb then
    failwith
      (Printf.sprintf "%s: stores recover to different seqs (%d vs %d)" what sa sb);
  if not (String.equal va vb) then
    failwith (Printf.sprintf "%s: stores at seq %d are not byte-identical" what sa)

(* {1 Shared scaffolding} *)

let host = "127.0.0.1"

let start_leader ?lcfg ~specs ~g0 ~base () =
  rm_rf base;
  let lcfg =
    match lcfg with Some c -> c | None -> Repl.default_leader_config ()
  in
  let store = Store.create ~policy:Wal.Always ~segment_bytes:512 ~dir:base ~specs g0 in
  let svc =
    Service.start
      { Service.default_config with readers = 2; batch_max = 1; watchdog_s = 0. }
      (Service.Durable store)
  in
  match Repl.lead ~config:lcfg ~service:svc ~store_dir:(Some base) ~host ~port:0 () with
  | Error m -> failwith ("leader failed to start: " ^ m)
  | Ok ld -> (store, svc, ld)

let rcfg ~seed ?(max_retries = 1000) () =
  { (Repl.default_replica_config ()) with
    Repl.r_frame_timeout_s = 2.0;
    reconnect_base_s = 0.02;
    reconnect_max_s = 0.2;
    max_retries;
    seed;
    fsync = Wal.Always }

let start_replica ~cfg ~dir ~port () =
  match
    Repl.follow ~config:cfg
      ~service_config:{ Service.default_config with readers = 2; watchdog_s = 0. }
      ~dir ~host ~port ()
  with
  | Error m -> failwith ("replica failed to attach: " ^ m)
  | Ok r -> r

let feed svc rand expected ~from_ ~upto =
  for i = from_ to upto do
    let d = random_delta rand expected.(i - 1) in
    expected.(i) <- Delta.apply expected.(i - 1) d;
    (match Service.offer svc d with
    | Ok () -> ()
    | Error e -> failwith ("leader offer rejected: " ^ e));
    wait_until ~what:"leader ingest" (fun () -> Service.ingested_seq svc >= i)
  done

let wait_caught_up ?(timeout = 30.0) ~what r target =
  let svc = Repl.replica_service r and timeout_s = timeout in
  if not (Service.wait_ingested ~timeout_s svc target && Service.wait_idle ~timeout_s svc) then
    failwith ("timed out waiting for " ^ what)

(* exact equality is the no-gap/no-double-apply gate: a skipped record
   leaves the replica short, a re-applied one pushes it past *)
let gate_seq ~what r target =
  let got = Service.ingested_seq (Repl.replica_service r) in
  if got <> target then
    failwith
      (Printf.sprintf "%s: replica at seq %d, leader at %d (gap or double-apply)"
         what got target)

let gate_replica ~what r expected_g =
  let svc = Repl.replica_service r in
  wait_until ~what:(what ^ ": replica publication") (fun () ->
      Service.view_seq svc = Service.ingested_seq svc);
  let g, spanners = Service.peek svc in
  if not (Graph.equal g expected_g) then
    failwith (what ^ ": replica topology diverges from the reference");
  Repair.check ~what g spanners

(* {1 Scenarios} *)

(* The leader↔replica link is severed mid-stream while the leader keeps
   ingesting. The replica serves what it has, then reconnects when the
   partition heals and resumes from its own sequence number. *)
let partition_mid_stream ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "partition-mid-stream" in
  let rdir = base ^ "-replica" in
  rm_rf rdir;
  let _store, svc, ld = start_leader ~specs ~g0 ~base () in
  let port = Repl.leader_port ld in
  let expected = Array.make (batches + 1) g0 in
  let half = batches / 2 in
  feed svc rand expected ~from_:1 ~upto:half;
  let r = start_replica ~cfg:(rcfg ~seed:(3 * n) ()) ~dir:rdir ~port () in
  wait_caught_up ~what:"replica catch-up before the partition" r half;
  gate_seq ~what:"partition-mid-stream (pre)" r half;
  let cl = Chaos.spawn_clients (Repl.replica_service r) ~seed:(11 * n) ~n ~count:2 in
  Repl.leader_set_refuse ld true;
  ignore (Repl.leader_drop_connections ld);
  feed svc rand expected ~from_:(half + 1) ~upto:batches;
  wait_until ~what:"the replica noticing the partition" (fun () ->
      not (Repl.connected r));
  (match
     (Service.query ~deadline_s:2.0 (Repl.replica_service r) Service.Stats)
       .Service.answer
   with
  | Ok _ -> ()
  | Error _ -> failwith "partitioned replica stopped answering reads");
  Repl.leader_set_refuse ld false;
  wait_until ~what:"reconnection after the partition healed" (fun () ->
      Repl.connected r);
  wait_caught_up ~what:"resume catch-up" r batches;
  gate_seq ~what:"partition-mid-stream" r batches;
  if Repl.reconnects r < 1 then failwith "no reconnect was recorded";
  let served, stale = Chaos.join_clients cl in
  gate_replica ~what:"partition-mid-stream" r expected.(batches);
  (* the healed leader still answers the line protocol over TCP *)
  let tcp_ok = ref 0 in
  (match Repl.connect_query ~host ~port ~timeout_s:2.0 with
  | Error m -> failwith ("query connect: " ^ m)
  | Ok fd ->
      List.iter
        (fun line ->
          match Repl.request fd ~timeout_s:2.0 line with
          | Ok _ -> incr tcp_ok
          | Error m -> failwith ("query '" ^ line ^ "': " ^ m))
        [ "status"; "stats" ];
      ignore (Repl.request fd ~timeout_s:2.0 "quit");
      (try Unix.close fd with Unix.Unix_error _ -> ()));
  let reconnects = Repl.reconnects r in
  ignore (Repl.stop_replica r);
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  gate_byte_identical ~what:"partition-mid-stream" base rdir;
  [ ("queries", served + !tcp_ok); ("stale", stale); ("reconnects", reconnects) ]

(* A snapshot ship is cut mid-chunk, the partial is corrupted on disk,
   and the ship retried: the resume must continue at the partial's
   offset, the CRC must reject the corruption, and a clean retry must
   bootstrap a replica that catches up. *)
let torn_snapshot_ship ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "torn-snapshot-ship" in
  let rdir = base ^ "-replica" in
  rm_rf rdir;
  let lcfg = { (Repl.default_leader_config ()) with Repl.ship_chunk = 64 } in
  Atomic.set lcfg.Repl.sender_delay_s 0.02;
  let store, svc, ld = start_leader ~lcfg ~specs ~g0 ~base () in
  let port = Repl.leader_port ld in
  let expected = Array.make (batches + 3) g0 in
  feed svc rand expected ~from_:1 ~upto:batches;
  if not (Service.wait_idle ~timeout_s:20.0 svc) then
    failwith "timed out waiting for leader quiescence before the snapshot";
  let snap_path = Store.write_snapshot store in
  let total = (Unix.stat snap_path).Unix.st_size in
  let part = Filename.concat rdir (Filename.basename snap_path ^ ".part") in
  (* cut the wire mid-ship; the partial must survive at a real offset *)
  let shipped = ref (Error "not run") in
  let shipper =
    Thread.create (fun () -> shipped := Repl.ship ~timeout_s:2.0 ~host ~port ~dir:rdir ()) ()
  in
  wait_until ~what:"ship progress before the cut" (fun () ->
      Sys.file_exists part && (Unix.stat part).Unix.st_size > 0);
  ignore (Repl.leader_drop_connections ld);
  Thread.join shipper;
  (match !shipped with
  | Ok _ -> failwith "the severed ship reported success"
  | Error _ -> ());
  if not (Sys.file_exists part) then failwith "the interrupted ship left no partial";
  let torn = (Unix.stat part).Unix.st_size in
  if torn <= 0 || torn >= total then
    failwith (Printf.sprintf "torn partial holds %d of %d bytes" torn total);
  (* corrupt one byte; the resumed ship must reject the whole file *)
  flip_byte part (torn / 2);
  Atomic.set lcfg.Repl.sender_delay_s 0.;
  (match Repl.ship ~timeout_s:5.0 ~host ~port ~dir:rdir () with
  | Ok _ -> failwith "a corrupted partial shipped without a checksum failure"
  | Error m ->
      if not (contains m "checksum") then
        failwith ("unexpected resume error: " ^ m));
  if Sys.file_exists part then failwith "the corrupt partial was not discarded";
  (* a clean retry installs, and the replica it bootstraps catches up *)
  (match Repl.ship ~timeout_s:5.0 ~host ~port ~dir:rdir () with
  | Error m -> failwith ("clean ship failed: " ^ m)
  | Ok (seq, _) ->
      if seq <> batches then
        failwith (Printf.sprintf "shipped snapshot at seq %d, expected %d" seq batches));
  let r = start_replica ~cfg:(rcfg ~seed:(5 * n) ()) ~dir:rdir ~port () in
  feed svc rand expected ~from_:(batches + 1) ~upto:(batches + 2);
  wait_caught_up ~what:"post-bootstrap catch-up" r (batches + 2);
  gate_seq ~what:"torn-snapshot-ship" r (batches + 2);
  gate_replica ~what:"torn-snapshot-ship" r expected.(batches + 2);
  let reconnects = Repl.reconnects r in
  ignore (Repl.stop_replica r);
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  gate_byte_identical ~what:"torn-snapshot-ship" base rdir;
  [ ("reconnects", reconnects) ]

(* The replica is throttled (a slow consumer) while the leader ingests,
   then released. The leader holds nothing for it — the WAL on disk is
   the backlog — so it is never disconnected: it lags, catches up on
   the same connection and converges. *)
let slow_replica ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "slow-replica" in
  let rdir = base ^ "-replica" in
  rm_rf rdir;
  let _store, svc, ld = start_leader ~specs ~g0 ~base () in
  let port = Repl.leader_port ld in
  let cfg = rcfg ~seed:(7 * n) () in
  let r = start_replica ~cfg ~dir:rdir ~port () in
  wait_until ~what:"replica attach" (fun () -> Repl.connected r);
  let cl = Chaos.spawn_clients (Repl.replica_service r) ~seed:(13 * n) ~n ~count:2 in
  (* one record per 0.2 s: the replica falls behind whatever the disk *)
  Atomic.set cfg.Repl.apply_delay_s 0.2;
  let total = max batches 24 in
  let expected = Array.make (total + 1) g0 in
  feed svc rand expected ~from_:1 ~upto:total;
  let applied = Service.ingested_seq (Repl.replica_service r) in
  if applied >= total then failwith "the throttled replica never fell behind";
  Atomic.set cfg.Repl.apply_delay_s 0.;
  wait_caught_up ~what:"catch-up after the throttle" r total;
  gate_seq ~what:"slow-replica" r total;
  let reconnects = Repl.reconnects r in
  if reconnects <> 0 || Repl.last_error r <> None then
    failwith
      (Printf.sprintf "the slow replica was disconnected (%d reconnects, last error %s)"
         reconnects (Option.value (Repl.last_error r) ~default:"none"));
  if Repl.followers ld <> 1 then failwith "the leader dropped its slow follower";
  let served, stale = Chaos.join_clients cl in
  gate_replica ~what:"slow-replica" r expected.(total);
  ignore (Repl.stop_replica r);
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  gate_byte_identical ~what:"slow-replica" base rdir;
  [ ("queries", served); ("stale", stale); ("reconnects", reconnects) ]

(* The replica is crash-killed mid-apply (no final snapshot), the
   leader keeps ingesting, and a restart from the same directory must
   recover its own WAL and resume the stream from the recovered
   sequence number. *)
let replica_restart_resume ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "replica-restart-resume" in
  let rdir = base ^ "-replica" in
  rm_rf rdir;
  let _store, svc, ld = start_leader ~specs ~g0 ~base () in
  let port = Repl.leader_port ld in
  let expected = Array.make (batches + 1) g0 in
  let half = batches / 2 in
  feed svc rand expected ~from_:1 ~upto:half;
  let cfg = rcfg ~seed:(9 * n) () in
  Atomic.set cfg.Repl.apply_delay_s 0.01;
  let r = start_replica ~cfg ~dir:rdir ~port () in
  wait_until ~what:"some replica progress before the crash" (fun () ->
      Service.ingested_seq (Repl.replica_service r) >= 1);
  Repl.kill_replica r;
  let crashed_at = Service.ingested_seq (Repl.replica_service r) in
  if crashed_at > half then
    failwith (Printf.sprintf "crashed at seq %d past the leader's %d" crashed_at half);
  feed svc rand expected ~from_:(half + 1) ~upto:batches;
  let r2 = start_replica ~cfg:(rcfg ~seed:(10 * n) ()) ~dir:rdir ~port () in
  wait_caught_up ~what:"catch-up after the restart" r2 batches;
  gate_seq ~what:"replica-restart-resume" r2 batches;
  gate_replica ~what:"replica-restart-resume" r2 expected.(batches);
  let reconnects = Repl.reconnects r2 in
  ignore (Repl.stop_replica r2);
  Repl.stop_leader ld;
  ignore (Service.stop svc);
  gate_byte_identical ~what:"replica-restart-resume" base rdir;
  [ ("reconnects", reconnects) ]

(* The leader dies; the caught-up replica is promoted — epoch bumped
   and persisted — and the deposed leader, restarted with its stale
   epoch, must be refused when the promoted store tries to follow it. *)
let leader_kill_promote ~rand ~specs ~n ~batches ~dir =
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "leader-kill-promote" in
  let rdir = base ^ "-replica" in
  rm_rf rdir;
  let _store, svc, ld = start_leader ~specs ~g0 ~base () in
  let port = Repl.leader_port ld in
  let expected = Array.make (batches + 1) g0 in
  feed svc rand expected ~from_:1 ~upto:batches;
  let r = start_replica ~cfg:(rcfg ~seed:(12 * n) ()) ~dir:rdir ~port () in
  wait_caught_up ~what:"replica catch-up before the leader dies" r batches;
  if Repl.lag r <> 0 then failwith "a caught-up replica reports non-zero lag";
  Service.kill svc;
  Repl.stop_leader ld;
  let epoch = Repl.promote r in
  if epoch <> 2 then failwith (Printf.sprintf "promoted to epoch %d, expected 2" epoch);
  if Repl.read_epoch ~dir:rdir <> 2 then failwith "the promoted epoch was not persisted";
  gate_seq ~what:"leader-kill-promote" r batches;
  gate_replica ~what:"leader-kill-promote" r expected.(batches);
  (* the deposed leader restarts from its own directory, still epoch 1 *)
  let deposed = base ^ "-deposed" in
  copy_dir base deposed;
  let dstore, dinfo = Store.recover ~policy:Wal.Always ~verify:false ~dir:deposed () in
  if dinfo.Store.last_seq <> batches then
    failwith
      (Printf.sprintf "deposed leader recovered to seq %d, expected %d"
         dinfo.Store.last_seq batches);
  let dsvc =
    Service.start
      { Service.default_config with readers = 1; batch_max = 1; watchdog_s = 0. }
      (Service.Durable dstore)
  in
  let dld =
    match Repl.lead ~service:dsvc ~store_dir:(Some deposed) ~host ~port:0 () with
    | Error m -> failwith ("deposed leader failed to restart: " ^ m)
    | Ok l -> l
  in
  if Repl.leader_epoch dld <> 1 then
    failwith "the deposed leader should still be at epoch 1";
  (* release the promoted store, then probe the fence with it *)
  ignore (Service.stop (Repl.replica_service r));
  (match
     Repl.follow
       ~config:(rcfg ~seed:(13 * n) ~max_retries:2 ())
       ~service_config:{ Service.default_config with readers = 1; watchdog_s = 0. }
       ~dir:rdir ~host ~port:(Repl.leader_port dld) ()
   with
  | Error m -> failwith ("fence probe failed to start: " ^ m)
  | Ok probe ->
      wait_until ~what:"the fence probe giving up" (fun () -> Repl.gave_up probe);
      (match Repl.last_error probe with
      | Some m when contains m "stale leader epoch" -> ()
      | Some m -> failwith ("fence rejected for the wrong reason: " ^ m)
      | None -> failwith "the fence probe recorded no error");
      ignore (Repl.stop_replica probe));
  Repl.stop_leader dld;
  ignore (Service.stop dsvc);
  gate_byte_identical ~what:"leader-kill-promote" deposed rdir;
  [ ("reconnects", Repl.reconnects r); ("disconnects", 1) ]

(* {1 The plan} *)

let scenarios =
  [ ("partition-mid-stream", partition_mid_stream); ("torn-snapshot-ship", torn_snapshot_ship);
    ("slow-replica", slow_replica);
    ("replica-restart-resume", replica_restart_resume); ("leader-kill-promote", leader_kill_promote) ]

let names = List.map fst scenarios

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>net chaos scenarios: %d (%d queries answered, %d stale-flagged, %d reconnects, %d \
     reasoned disconnects)%a@]"
    r.scenarios (count r "queries") (count r "stale") (count r "reconnects")
    (count r "disconnects") pp_failures r

let run ?(specs = [ Repair.Gdy_k { k = 1 } ]) ?only ~seed ~n ~batches ~dir () =
  Rs_store.Harness.run ~suite:"Net_chaos.run" ~min_n:2 ~min_batches:4 ?only ~seed ~n ~batches
    ~dir
    (fun rand ->
      List.map (fun (name, f) -> (name, fun () -> f ~rand ~specs ~n ~batches ~dir)) scenarios)
