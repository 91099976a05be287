(* Tests for the TCP transport and replication layer: frame framing
   against corruption, clean/dirty close and mid-frame deadlines,
   snapshot forward-compatibility
   (unknown section kinds), a WAL sequence gap exactly on a
   segment-rotation boundary, the listener's limits (hundreds of
   sessions, a full fd table, descriptors past 1024), and the seeded
   network chaos harness as acceptance. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Wal = Rs_store.Wal
module Snapshot = Rs_store.Snapshot
module Binio = Rs_store.Binio
module Frame = Rs_net.Frame
module Net_chaos = Rs_net.Net_chaos
module Harness = Rs_store.Harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmp_count = ref 0

let tmp_dir name =
  incr tmp_count;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_net_test_%d_%s_%d" (Unix.getpid ()) name !tmp_count)
  in
  rm_rf d;
  d

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* {1 Frame} *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 100_000 'q'; "\x00\xff\x7f" ] in
  List.iter
    (fun p ->
      (match Frame.send a ~timeout_s:5.0 p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Frame.error_to_string e));
      match Frame.recv b ~timeout_s:5.0 with
      | Ok got -> check "round-trip" true (String.equal got p)
      | Error e -> Alcotest.failf "recv: %s" (Frame.error_to_string e))
    payloads;
  Unix.close a;
  Unix.close b

let test_frame_crc_rejects () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  (* a well-formed header whose payload was flipped in flight *)
  let buf = Buffer.create 16 in
  Binio.w_u32 buf 5;
  Binio.w_u32 buf (Crc32.of_string "hello");
  Buffer.add_string buf "hellp";
  let raw = Buffer.contents buf in
  ignore (Unix.write_substring a raw 0 (String.length raw));
  (match Frame.recv b ~timeout_s:5.0 with
  | Error (Frame.Corrupt m) -> check "names the checksum" true (contains m "checksum")
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "a corrupt frame was accepted");
  Unix.close a;
  Unix.close b

let test_frame_close_kinds () =
  (* EOF between frames is a clean close; EOF mid-frame is corruption *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Unix.close a;
  (match Frame.recv b ~timeout_s:5.0 with
  | Error Frame.Closed -> ()
  | Error e -> Alcotest.failf "expected Closed, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "recv on a closed peer returned a frame");
  Unix.close b;
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let buf = Buffer.create 16 in
  Binio.w_u32 buf 100;
  Binio.w_u32 buf 0;
  Buffer.add_string buf "only-part";
  let raw = Buffer.contents buf in
  ignore (Unix.write_substring a raw 0 (String.length raw));
  Unix.close a;
  (match Frame.recv b ~timeout_s:5.0 with
  | Error (Frame.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "a torn frame was accepted");
  Unix.close b

let test_frame_timeout () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let t0 = Unix.gettimeofday () in
  (match Frame.recv b ~timeout_s:0.1 with
  | Error Frame.Timeout -> ()
  | Error e -> Alcotest.failf "expected Timeout, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "recv with nothing to read returned a frame");
  check "deadline honored" true (Unix.gettimeofday () -. t0 < 2.0);
  Unix.close a;
  Unix.close b

(* A deadline that passes after part of a frame was read leaves the
   stream out of step: that is corruption, not an idle timeout. *)
let test_frame_deadline_mid_frame () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write_substring a "\x10\x00\x00\x00" 0 4);
  (match Frame.recv b ~timeout_s:0.1 with
  | Error (Frame.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "half a header returned a frame");
  Unix.close a;
  Unix.close b

(* {1 Snapshot forward compatibility} *)

let sample_snapshot () =
  let rand = Rand.create 11 in
  let g = Gen.random_connected rand 16 0.3 in
  { Snapshot.seq = 7; graph = g; spanners = [] }

(* append one unknown-kind section and patch the section count *)
let with_unknown_section ?(bad_crc = false) snap =
  let base = Snapshot.to_string snap in
  let payload = "a-section-from-the-future" in
  let b = Buffer.create (String.length base + 64) in
  Buffer.add_string b base;
  Binio.w_u32 b 99;
  Binio.w_u32 b (String.length payload);
  Buffer.add_string b payload;
  Binio.w_u32 b (if bad_crc then 0x0BAD0BAD else Crc32.of_string payload);
  let by = Bytes.of_string (Buffer.contents b) in
  let count = Int32.to_int (Bytes.get_int32_le by 12) land 0xFFFFFFFF in
  Bytes.set_int32_le by 12 (Int32.of_int (count + 1));
  Bytes.to_string by

let test_snapshot_unknown_section_loads () =
  let snap = sample_snapshot () in
  let s = with_unknown_section snap in
  match Snapshot.of_string s with
  | got ->
      check_int "seq survives the unknown section" snap.Snapshot.seq got.Snapshot.seq;
      check "graph survives the unknown section" true
        (Graph.equal snap.Snapshot.graph got.Snapshot.graph)
  | exception Binio.Corrupt m ->
      Alcotest.failf "an unknown-kind section must be skipped, got Corrupt: %s" m

let test_snapshot_unknown_section_bad_crc_rejected () =
  let s = with_unknown_section ~bad_crc:true (sample_snapshot ()) in
  match Snapshot.of_string s with
  | _ -> Alcotest.fail "a CRC-damaged unknown section must reject the snapshot"
  | exception Binio.Corrupt _ -> ()

(* {1 WAL: sequence gap on a segment-rotation boundary} *)

let test_wal_gap_at_rotation () =
  let dir = tmp_dir "walgap" in
  Unix.mkdir dir 0o755;
  let w = Wal.create_writer ~policy:Wal.Always ~dir ~next_seq:1 () in
  check_int "seq 1" 1 (Wal.append w [ Delta.Add_edge (0, 1) ]);
  check_int "seq 2" 2 (Wal.append w [ Delta.Add_edge (1, 2) ]);
  check_int "seq 3" 3 (Wal.append w [ Delta.Add_edge (2, 3) ]);
  Wal.close_writer w;
  (* a rotation that lost a record: the next segment starts at 5 *)
  let w2 = Wal.create_writer ~policy:Wal.Always ~dir ~next_seq:5 () in
  check_int "seq 5" 5 (Wal.append w2 [ Delta.Add_edge (3, 4) ]);
  Wal.close_writer w2;
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  check_int "the contiguous prefix survives" 3 (List.length scan.Wal.records);
  (match List.rev scan.Wal.records with
  | last :: _ -> check_int "prefix ends at the last contiguous seq" 3 last.Wal.seq
  | [] -> Alcotest.fail "no records survived");
  (match scan.Wal.truncation with
  | None -> Alcotest.fail "the cross-segment gap went undetected"
  | Some tr ->
      check "reason names the gap" true (contains tr.Wal.t_reason "gap");
      check "damage pinned to the gapped segment" true
        (contains (Filename.basename tr.Wal.t_file) "5");
      check_int "whole segment is invalid" 0 tr.Wal.t_offset;
      (* making it physical leaves a cleanly extendable log *)
      Wal.truncate ~dir tr);
  let scan2 = Wal.scan_dir ~dir ~after_seq:0 in
  check "no damage after truncate" true (scan2.Wal.truncation = None);
  check_int "still the contiguous prefix" 3 (List.length scan2.Wal.records);
  let w3 = Wal.create_writer ~policy:Wal.Always ~dir ~next_seq:4 () in
  check_int "a fresh writer extends at 4" 4 (Wal.append w3 [ Delta.Add_edge (4, 5) ]);
  Wal.close_writer w3;
  let scan3 = Wal.scan_dir ~dir ~after_seq:0 in
  check_int "log is whole again" 4 (List.length scan3.Wal.records);
  rm_rf dir

(* {1 Tcp: connections on threads, the fd table as the limit} *)

module Tcp = Rs_net.Tcp
module Repl = Rs_net.Repl
module Service = Rs_serve.Service
module Obs = Rs_obs.Obs

let refused () = Obs.counter_value (Obs.counter "net/refused")

let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let echo_server () =
  let srv =
    match Tcp.listen ~host:"127.0.0.1" ~port:0 with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Tcp.serve srv (fun fd ->
      match Frame.recv fd ~timeout_s:5.0 with
      | Ok q -> ignore (Frame.send fd ~timeout_s:5.0 ("echo " ^ q))
      | Error _ -> ());
  srv

let ask srv =
  match Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port srv) ~timeout_s:5.0 with
  | Error e -> Error e
  | Ok fd ->
      let r =
        match Frame.send fd ~timeout_s:5.0 "ping" with
        | Error e -> Error (Frame.error_to_string e)
        | Ok () -> Result.map_error Frame.error_to_string (Frame.recv fd ~timeout_s:5.0)
      in
      Unix.close fd;
      r

(* Duplicates of one descriptor until the table is full ([cap] = [None])
   or [cap] are open, lowest-numbered first. *)
let hold_fds ?cap () =
  let base = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let rec go acc k =
    if Some k = cap then (acc, true)
    else if k >= 1 lsl 17 then (acc, false)
    else
      match Unix.dup base with
      | fd -> go (fd :: acc) (k + 1)
      | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) -> (acc, true)
  in
  let held, ok = go [] 0 in
  (base :: List.rev held, ok)

(* More sessions than OCaml's 128-domain cap ever allowed: every one is
   served at once, none is refused, and stop joins them all. *)
let test_many_query_sessions () =
  with_obs @@ fun () ->
  let g = Gen.random_connected (Rand.create 5) 30 0.2 in
  let svc =
    Service.start
      { Service.default_config with readers = 2; watchdog_s = 0. }
      (Service.Ephemeral { specs = [ Rs_dynamic.Repair.Gdy_k { k = 1 } ]; g })
  in
  let ld =
    match Repl.lead ~service:svc ~store_dir:None ~host:"127.0.0.1" ~port:0 () with
    | Ok ld -> ld
    | Error e -> Alcotest.fail e
  in
  let refused0 = refused () in
  let fds =
    List.init 200 (fun _ ->
        match Repl.connect_query ~host:"127.0.0.1" ~port:(Repl.leader_port ld) ~timeout_s:5.0 with
        | Ok fd -> fd
        | Error e -> Alcotest.failf "connect: %s" e)
  in
  List.iteri
    (fun i fd ->
      match Repl.request fd ~timeout_s:10.0 "stats" with
      | Ok reply when contains reply "stats: n=30" -> ()
      | Ok reply -> Alcotest.failf "session %d: unexpected reply %S" i reply
      | Error e -> Alcotest.failf "session %d: %s" i e)
    fds;
  check_int "none refused" 0 (refused () - refused0);
  Repl.stop_leader ld;
  List.iter Unix.close fds;
  ignore (Service.stop svc)

(* At a full fd table a connection beyond it is refused and counted,
   the accept loop does not spin, and service resumes once fds free.
   A blocked [accept] already holds the slot for the next connection,
   so the first client past the table is still served; the second is
   the one that finds no room. *)
let test_full_fd_table () =
  with_obs @@ fun () ->
  let srv = echo_server () in
  let refused0 = refused () in
  let held, full = hold_fds () in
  if not full then begin
    List.iter Unix.close held;
    Tcp.stop srv;
    Alcotest.skip ()
  end;
  (* free the lowest slot, so the client's own descriptor is a small one *)
  let connect_in_freed_slot held =
    Unix.close (List.hd held);
    match Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port srv) ~timeout_s:5.0 with
    | Ok fd -> (fd, List.tl held)
    | Error e -> Alcotest.failf "connect: %s" e
  in
  let first, held = connect_in_freed_slot held in
  let second, held = connect_in_freed_slot held in
  let seen = Frame.recv second ~timeout_s:5.0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  Unix.sleepf 1.0;
  let busy = cpu () -. c0 in
  List.iter Unix.close (first :: second :: held);
  check "the second client saw Closed" true (seen = Error Frame.Closed);
  check "counted in net/refused" true (refused () - refused0 >= 1);
  if busy >= 0.5 then Alcotest.failf "the accept loop used %.2f s of CPU in 1 s" busy;
  check "answered once fds are free" true (ask srv = Ok "echo ping");
  Tcp.stop srv

(* [select] rejects descriptors numbered 1024 and up; connect must not
   depend on it. *)
let test_connect_high_fd () =
  let srv = echo_server () in
  let held, _ = hold_fds ~cap:1100 () in
  let r = ask srv in
  List.iter Unix.close held;
  Tcp.stop srv;
  match r with
  | Ok reply -> check "answered" true (reply = "echo ping")
  | Error e -> Alcotest.failf "connect with 1100 extra fds: %s" e

(* {1 Network chaos as acceptance} *)

let test_net_chaos () =
  let dir = tmp_dir "net_chaos" in
  let r = Net_chaos.run ~seed:7 ~n:24 ~batches:6 ~dir () in
  List.iter
    (fun f ->
      Printf.eprintf "net chaos FAIL %s: %s\n%!" f.Harness.scenario f.Harness.reason)
    r.Harness.failures;
  check "all scenarios pass" true (Harness.ok r);
  check_int "all scenarios ran" 5 r.Harness.scenarios;
  check "reconnects were exercised" true (Harness.count r "reconnects" >= 2);
  check "reasoned disconnects were exercised" true (Harness.count r "disconnects" >= 2);
  rm_rf dir

let () =
  Alcotest.run "net"
    [ ("frame",
       [ Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
         Alcotest.test_case "crc rejects" `Quick test_frame_crc_rejects;
         Alcotest.test_case "close kinds" `Quick test_frame_close_kinds;
         Alcotest.test_case "timeout" `Quick test_frame_timeout;
         Alcotest.test_case "deadline mid-frame is corrupt" `Quick
           test_frame_deadline_mid_frame ]);
      ("snapshot",
       [ Alcotest.test_case "unknown section loads" `Quick
           test_snapshot_unknown_section_loads;
         Alcotest.test_case "bad-crc unknown section rejected" `Quick
           test_snapshot_unknown_section_bad_crc_rejected ]);
      ("wal",
       [ Alcotest.test_case "gap at rotation boundary" `Quick
           test_wal_gap_at_rotation ]);
      ( "tcp",
        [ Alcotest.test_case "200 concurrent query sessions" `Quick test_many_query_sessions;
          Alcotest.test_case "refuses at a full fd table" `Quick test_full_fd_table;
          Alcotest.test_case "connect past fd 1024" `Quick test_connect_high_fd ] );
      ("chaos", [ Alcotest.test_case "all scenarios" `Slow test_net_chaos ]) ]
