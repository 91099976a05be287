(* Tests for the TCP transport and replication layer: frame framing
   against corruption and clean/dirty close, the blocking bounded
   queue under close, snapshot forward-compatibility (unknown section
   kinds), a WAL sequence gap exactly on a segment-rotation boundary,
   and the seeded network chaos harness as acceptance. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Bqueue = Rs_serve.Bqueue
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

(* {1 Bqueue: close while producers are blocked} *)

let test_bqueue_close_wakes_blocked () =
  let q = Bqueue.create ~capacity:1 in
  (match Bqueue.push q 0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first push into an empty queue rejected");
  let results = Array.make 3 None in
  let doms =
    Array.init 3 (fun i ->
        Domain.spawn (fun () -> results.(i) <- Some (Bqueue.push_wait q (i + 1))))
  in
  (* give every producer time to block on the full queue *)
  Unix.sleepf 0.1;
  check_int "queue stayed bounded" 1 (Bqueue.length q);
  Bqueue.close q;
  Array.iter Domain.join doms;
  Array.iter
    (fun r ->
      match r with
      | Some (Error Bqueue.Closed) -> ()
      | Some (Ok ()) -> Alcotest.fail "a blocked push slipped past close"
      | Some (Error (Bqueue.Full _)) -> Alcotest.fail "push_wait returned Full"
      | None -> Alcotest.fail "a blocked producer never returned")
    results;
  (* drain after close: what was accepted before close is poppable *)
  (match Bqueue.pop_batch q ~max:10 ~timeout_s:0.2 with
  | [ 0 ] -> ()
  | other -> Alcotest.failf "drained %d elements, expected [0]" (List.length other));
  check "drained" true (Bqueue.pop_batch q ~max:10 ~timeout_s:0.05 = []);
  check "closed" true (Bqueue.is_closed q);
  (match Bqueue.push_wait q 9 with
  | Error Bqueue.Closed -> ()
  | _ -> Alcotest.fail "push_wait after close must return Closed without blocking")

let test_bqueue_push_wait_unblocks () =
  let q = Bqueue.create ~capacity:1 in
  (match Bqueue.push q 1 with Ok () -> () | Error _ -> Alcotest.fail "push");
  let d = Domain.spawn (fun () -> Bqueue.push_wait q 2) in
  Unix.sleepf 0.05;
  check_int "producer is blocked, not rejected" 1 (Bqueue.length q);
  (match Bqueue.pop_batch q ~max:1 ~timeout_s:0.5 with
  | [ 1 ] -> ()
  | _ -> Alcotest.fail "pop");
  (match Domain.join d with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "push_wait must succeed once room frees");
  match Bqueue.pop_batch q ~max:1 ~timeout_s:0.5 with
  | [ 2 ] -> ()
  | _ -> Alcotest.fail "the unblocked push's element is missing"

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

(* {1 Tcp at the domain limit} *)

(* With every domain the runtime allows parked, the accept loop cannot
   hand a connection to a handler domain: it must refuse that one
   connection and keep listening, serve again once domains are free,
   and still stop cleanly. *)
let test_tcp_domain_limit () =
  let module Tcp = Rs_net.Tcp in
  let srv =
    match Tcp.listen ~host:"127.0.0.1" ~port:0 with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Tcp.serve srv (fun fd ->
      match Frame.recv fd ~timeout_s:5.0 with
      | Ok q -> ignore (Frame.send fd ~timeout_s:5.0 ("echo " ^ q))
      | Error _ -> ());
  let ask () =
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
  in
  let release = Atomic.make false in
  let park () =
    while not (Atomic.get release) do
      Unix.sleepf 0.005
    done
  in
  let rec fill acc = match Domain.spawn park with d -> fill (d :: acc) | exception Failure _ -> acc in
  let parked = fill [] in
  let refused = ask () in
  Atomic.set release true;
  List.iter Domain.join parked;
  check "some domains were parked" true (parked <> []);
  check "refused while no domain is free" true (Result.is_error refused);
  check "answered once domains are free" true (ask () = Ok "echo ping");
  Tcp.stop srv

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
         Alcotest.test_case "timeout" `Quick test_frame_timeout ]);
      ("bqueue",
       [ Alcotest.test_case "close wakes blocked producers" `Quick
           test_bqueue_close_wakes_blocked;
         Alcotest.test_case "push_wait unblocks on room" `Quick
           test_bqueue_push_wait_unblocks ]);
      ("snapshot",
       [ Alcotest.test_case "unknown section loads" `Quick
           test_snapshot_unknown_section_loads;
         Alcotest.test_case "bad-crc unknown section rejected" `Quick
           test_snapshot_unknown_section_bad_crc_rejected ]);
      ("wal",
       [ Alcotest.test_case "gap at rotation boundary" `Quick
           test_wal_gap_at_rotation ]);
      ("tcp", [ Alcotest.test_case "refuses at the domain limit" `Quick test_tcp_domain_limit ]);
      ("chaos", [ Alcotest.test_case "all scenarios" `Slow test_net_chaos ]) ]
