(* Tests for the durable store: codec round trips, WAL scanning and
   truncation, store create/append/recover/compact, and the named
   crash points — torn final record, corrupt mid-segment CRC,
   truncated snapshot section, interrupted rename — plus the seeded
   crash-injection harness as acceptance. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair
module Crc32 = Rs_store.Crc32
module Binio = Rs_store.Binio
module Snapshot = Rs_store.Snapshot
module Wal = Rs_store.Wal
module Store = Rs_store.Store
module Crash = Rs_store.Crash
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

(* fresh scratch directory per test; removed by the test on success *)
let tmp_dir name =
  incr tmp_count;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_store_test_%d_%s_%d" (Unix.getpid ()) name !tmp_count)
  in
  rm_rf d;
  d

(* ---------------------------------------------------------------- *)
(* CRC-32 *)

let test_crc32 () =
  (* the standard check value for CRC-32/ISO-HDLC *)
  check_int "check string" 0xCBF43926 (Crc32.of_string "123456789");
  check_int "empty" 0 (Crc32.of_string "");
  let a = Crc32.update Crc32.init "12345" ~pos:0 ~len:5 in
  check_int "streaming composes" (Crc32.of_string "123456789")
    (Crc32.finish (Crc32.update a "xx6789" ~pos:2 ~len:4))

(* ---------------------------------------------------------------- *)
(* Snapshot codec *)

let all_specs =
  [
    Repair.Gdy { r = 2; beta = 1 };
    Repair.Mis { r = 2 };
    Repair.Gdy_k { k = 1 };
    Repair.Mis_k { k = 2 };
  ]

let snapshot_of_graph ~seq ~specs g =
  { Snapshot.seq;
    graph = g;
    spanners =
      List.map
        (fun spec ->
          let st = Repair.init spec g in
          { Snapshot.spec; trees = Repair.export_trees st; union = Repair.pairs st })
        specs }

(* The snapshot decoder feeds CRC-clean edge arrays through
   [Graph.of_canonical]'s validation as a second line of defense (a
   correct checksum over a wrong-but-consistent payload, e.g. a
   version skew, must still be rejected); the hot loaders pass
   [~validate:false] only for arrays they built themselves. *)
let test_of_canonical_validate () =
  let edges = [| (0, 1); (1, 2) |] in
  let ok = Graph.of_canonical ~n:3 edges in
  check_int "m" 2 (Graph.m ok);
  let rejects bad =
    match Graph.of_canonical ~n:3 bad with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "unsorted" true (rejects [| (1, 2); (0, 1) |]);
  check "duplicate" true (rejects [| (0, 1); (0, 1) |]);
  check "non-canonical orientation" true (rejects [| (1, 0) |]);
  check "self loop" true (rejects [| (1, 1) |]);
  check "out of range" true (rejects [| (0, 7) |]);
  check "trusted fast path same graph" true
    (Graph.equal ok (Graph.of_canonical ~validate:false ~n:3 edges))

let test_snapshot_roundtrip () =
  let g = Gen.random_connected (Rand.create 7) 60 0.08 in
  let t = snapshot_of_graph ~seq:42 ~specs:all_specs g in
  let s = Snapshot.to_string t in
  let t' = Snapshot.of_string s in
  check_int "seq" t.Snapshot.seq t'.Snapshot.seq;
  check "graph" true (Graph.equal t.Snapshot.graph t'.Snapshot.graph);
  check "spanner count" true
    (List.length t.Snapshot.spanners = List.length t'.Snapshot.spanners);
  List.iter2
    (fun a b ->
      check "spec" true (a.Snapshot.spec = b.Snapshot.spec);
      check "trees" true (a.Snapshot.trees = b.Snapshot.trees);
      check "union" true (a.Snapshot.union = b.Snapshot.union))
    t.Snapshot.spanners t'.Snapshot.spanners;
  check "deterministic re-encode" true (Snapshot.to_string t' = s)

let test_snapshot_rejects_damage () =
  let g = Gen.random_connected (Rand.create 9) 30 0.15 in
  let s = Snapshot.to_string (snapshot_of_graph ~seq:3 ~specs:[ Repair.Gdy_k { k = 1 } ] g) in
  let len = String.length s in
  (* every truncation point must be rejected *)
  let cut_points = [ 4; 12; len / 3; len / 2; len - 1 ] in
  List.iter
    (fun cut ->
      match Snapshot.of_string (String.sub s 0 cut) with
      | _ -> Alcotest.failf "truncation at %d of %d accepted" cut len
      | exception Binio.Corrupt _ -> ())
    cut_points;
  (* every single-byte flip must be rejected *)
  let pos = ref 0 in
  while !pos < len do
    let b = Bytes.of_string s in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0xA5));
    (match Snapshot.of_string (Bytes.to_string b) with
    | _ -> Alcotest.failf "flip at byte %d of %d accepted" !pos len
    | exception Binio.Corrupt _ -> ());
    pos := !pos + 7
  done

let test_restore_equivalence () =
  let g = Gen.random_connected (Rand.create 21) 80 0.06 in
  List.iter
    (fun spec ->
      let st = Repair.init spec g in
      let st' = Repair.restore spec g ~trees:(Repair.export_trees st) in
      check "pairs equal" true (Repair.pairs st = Repair.pairs st');
      check "spanner equal" true (Edge_set.equal (Repair.spanner st) (Repair.spanner st')))
    all_specs

(* The persisted per-root trees are exactly the per-root constructions,
   listed shallow-first by (child depth, child): snapshots stay
   byte-identical to the per-root implementation. *)
let test_export_trees_reference () =
  let module Dom_tree = Rs_core.Dom_tree in
  let module Dom_tree_k = Rs_core.Dom_tree_k in
  let reference spec g u =
    let scratch = Bfs.Scratch.create () in
    let tree =
      match spec with
      | Repair.Gdy { r; beta } -> Dom_tree.gdy ~scratch g ~r ~beta u
      | Repair.Mis { r } -> Dom_tree.mis ~scratch g ~r u
      | Repair.Gdy_k { k } -> Dom_tree_k.gdy_k ~scratch g ~k u
      | Repair.Mis_k { k } -> Dom_tree_k.mis_k ~scratch g ~k u
    in
    let tree = Reference.of_pairs ~root:u tree in
    Reference.edges tree
    |> List.map (fun (p, c) -> (Reference.depth tree c, c, p))
    |> List.sort compare
    |> List.map (fun (_, c, p) -> (p, c))
  in
  let rand = Rand.create 23 in
  let pts = Rs_geometry.Sampler.uniform rand ~n:150 ~dim:2 ~side:6.0 in
  List.iter
    (fun g ->
      List.iter
        (fun spec ->
          let trees = Repair.export_trees (Repair.init spec g) in
          Array.iteri
            (fun u edges ->
              if edges <> reference spec g u then
                Alcotest.failf "%a: tree %d differs from the per-root reference"
                  Repair.pp_spec spec u)
            trees)
        (Repair.Gdy { r = 3; beta = 1 } :: Repair.Mis_k { k = 3 } :: all_specs))
    [ Rs_geometry.Unit_ball.udg pts; Gen.random_connected (Rand.create 21) 80 0.06 ]

(* ---------------------------------------------------------------- *)
(* WAL *)

let some_deltas =
  [
    [ Delta.Add_edge (0, 5) ];
    [ Delta.Remove_edge (1, 2) ];
    [ Delta.Node_down 3 ];
    [ Delta.Node_up (3, [ 2; 4 ]) ];
    [ Delta.Add_edge (6, 12); Delta.Add_edge (7, 15) ];
    [ Delta.Remove_edge (0, 5) ];
  ]

let test_wal_roundtrip () =
  let dir = tmp_dir "wal" in
  Unix.mkdir dir 0o755;
  (* tiny segments force rotation mid-history *)
  let w = Wal.create_writer ~policy:(Wal.Every 2) ~segment_bytes:64 ~dir ~next_seq:1 () in
  List.iteri (fun i d -> check_int "assigned seq" (i + 1) (Wal.append w d)) some_deltas;
  Wal.close_writer w;
  check "rotated into several segments" true (List.length (Wal.segment_files ~dir) > 1);
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  check "no damage" true (scan.Wal.truncation = None);
  check "all records back, in order" true
    (List.map (fun r -> (r.Wal.seq, r.Wal.delta)) scan.Wal.records
    = List.mapi (fun i d -> (i + 1, d)) some_deltas);
  let scan4 = Wal.scan_dir ~dir ~after_seq:4 in
  check "after_seq skips covered records" true
    (List.map (fun r -> r.Wal.seq) scan4.Wal.records = [ 5; 6 ]);
  rm_rf dir

let test_wal_torn_tail () =
  let dir = tmp_dir "wal_torn" in
  Unix.mkdir dir 0o755;
  let w = Wal.create_writer ~policy:Wal.Never ~dir ~next_seq:1 () in
  List.iter (fun d -> ignore (Wal.append w d)) some_deltas;
  Wal.close_writer w;
  let full = Wal.scan_dir ~dir ~after_seq:0 in
  let last = List.nth full.Wal.records (List.length full.Wal.records - 1) in
  (* tear the final record mid-payload *)
  Unix.truncate last.Wal.file (last.Wal.offset + 5);
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  check "stops at the torn record" true
    (List.map (fun r -> r.Wal.seq) scan.Wal.records = [ 1; 2; 3; 4; 5 ]);
  (match scan.Wal.truncation with
  | Some tr ->
      check "tear located" true (tr.Wal.t_file = last.Wal.file && tr.Wal.t_offset = last.Wal.offset);
      Wal.truncate ~dir tr
  | None -> Alcotest.fail "tear not reported");
  let rescan = Wal.scan_dir ~dir ~after_seq:0 in
  check "physical truncation heals the log" true
    (rescan.Wal.truncation = None && List.length rescan.Wal.records = 5);
  rm_rf dir

(* every:N batches fsyncs, but rotation must not extend the risk
   window: sealing a segment flushes and fsyncs it regardless of how
   few appends are unsynced, so once a record's segment has rotated
   away it is recoverable even if the writer never closes (the crash
   case) and the count never reached N. *)
let test_wal_every_n_rotation () =
  let dir = tmp_dir "wal_every_rot" in
  Unix.mkdir dir 0o755;
  (* N far above the append count: no count-triggered fsync ever runs;
     tiny segments force several rotations *)
  let w = Wal.create_writer ~policy:(Wal.Every 1_000_000) ~segment_bytes:64 ~dir ~next_seq:1 () in
  List.iter (fun d -> ignore (Wal.append w d)) some_deltas;
  let segs = Wal.segment_files ~dir in
  check "rotated into several segments" true (List.length segs > 1);
  (* crash now: the writer is abandoned, never flushed, never closed *)
  let tail_first_seq, tail_seg = List.nth segs (List.length segs - 1) in
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  let seqs = List.map (fun r -> r.Wal.seq) scan.Wal.records in
  check "every sealed-segment record survives the crash" true
    (List.filteri (fun i _ -> i < tail_first_seq - 1) (List.mapi (fun i _ -> i + 1) some_deltas)
    = List.filter (fun s -> s < tail_first_seq) seqs);
  check "recovered records are a contiguous prefix" true
    (seqs = List.mapi (fun i _ -> i + 1) seqs);
  (match scan.Wal.truncation with
  | Some tr -> check "any damage is confined to the open tail segment" true (tr.Wal.t_file = tail_seg)
  | None -> ());
  List.iter2
    (fun r (i, d) ->
      if r.Wal.seq < tail_first_seq then begin
        check_int "sealed seq" i r.Wal.seq;
        check "sealed payload intact" true (r.Wal.delta = d)
      end)
    scan.Wal.records
    (List.filteri (fun i _ -> i < List.length scan.Wal.records)
       (List.mapi (fun i d -> (i + 1, d)) some_deltas));
  Wal.close_writer w;
  rm_rf dir

let test_wal_policy_parse () =
  check "always" true (Wal.policy_of_string "always" = Ok Wal.Always);
  check "never" true (Wal.policy_of_string "never" = Ok Wal.Never);
  check "every:8" true (Wal.policy_of_string "every:8" = Ok (Wal.Every 8));
  check "every:0 rejected" true (Result.is_error (Wal.policy_of_string "every:0"));
  check "garbage rejected" true (Result.is_error (Wal.policy_of_string "fsyncish"))

(* ---------------------------------------------------------------- *)
(* Store *)

let specs = [ Repair.Gdy_k { k = 1 } ]

let build_store dir =
  let g0 = Gen.cycle 24 in
  let st = Store.create ~policy:Wal.Always ~segment_bytes:128 ~dir ~specs g0 in
  List.iter (fun d -> ignore (Store.append st d)) some_deltas;
  st

let test_store_recover () =
  let dir = tmp_dir "store" in
  let st = build_store dir in
  let live = Store.graph st in
  check_int "six deltas appended" 6 (Store.seq st);
  Store.close st;
  let t, rcv = Store.recover ~verify:true ~dir () in
  check_int "recovered to the last seq" 6 rcv.Store.last_seq;
  check_int "replayed the whole log" 6 rcv.Store.replayed;
  check "no damage" true (rcv.Store.truncated = None && rcv.Store.snapshots_skipped = []);
  check "graph identical" true (Graph.equal live (Store.graph t));
  check "spanner equal to from-scratch" true
    (List.for_all
       (fun (spec, s) -> Repair.pairs s = Edge_set.to_list (Repair.build spec (Store.graph t)))
       (Store.states t));
  (* the recovered store keeps working *)
  ignore (Store.append t [ Delta.Add_edge (2, 9) ]);
  check_int "append continues the sequence" 7 (Store.seq t);
  Store.close t;
  let t2, rcv2 = Store.recover ~verify:true ~dir () in
  check_int "second recovery sees the new record" 7 rcv2.Store.last_seq;
  Store.close t2;
  rm_rf dir

let test_store_quiescent_append () =
  let dir = tmp_dir "store_quiescent" in
  let st = build_store dir in
  let seq = Store.seq st in
  check "net-empty delta logs nothing" true
    (Store.append st [ Delta.Add_edge (0, 1) ] = [] && Store.seq st = seq);
  check "sync_to same graph logs nothing" true
    (Store.sync_to st (Store.graph st) = [] && Store.seq st = seq);
  Store.close st;
  rm_rf dir

let test_store_compact () =
  let dir = tmp_dir "store_compact" in
  let st = build_store dir in
  let live = Store.graph st in
  ignore (Store.compact st);
  check "one snapshot survives compaction" true (List.length (Snapshot.list_dir ~dir) = 1);
  ignore (Store.append st [ Delta.Add_edge (3, 17) ]);
  Store.close st;
  let t, rcv = Store.recover ~verify:true ~dir () in
  check_int "snapshot carries the folded history" 6 rcv.Store.snapshot_seq;
  check_int "only the post-compaction record replays" 1 rcv.Store.replayed;
  check "graph identical" true
    (Graph.equal (Delta.apply live [ Delta.Add_edge (3, 17) ]) (Store.graph t));
  Store.close t;
  rm_rf dir

(* ---------------------------------------------------------------- *)
(* Named crash points *)

let test_crash_torn_final_record () =
  let dir = tmp_dir "crash_torn" in
  let st = build_store dir in
  let before_last = Delta.apply (Gen.cycle 24) (List.concat (List.filteri (fun i _ -> i < 5) some_deltas)) in
  Store.close st;
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  let last = List.nth scan.Wal.records 5 in
  Unix.truncate last.Wal.file (last.Wal.offset + 3);
  let t, rcv = Store.recover ~verify:true ~dir () in
  check_int "lost exactly the torn record" 5 rcv.Store.last_seq;
  check "damage reported" true (rcv.Store.truncated <> None);
  check "recovered the verified prefix" true (Graph.equal before_last (Store.graph t));
  Store.close t;
  rm_rf dir

let test_crash_corrupt_mid_segment () =
  let dir = tmp_dir "crash_crc" in
  let st = build_store dir in
  Store.close st;
  let scan = Wal.scan_dir ~dir ~after_seq:0 in
  let r3 = List.nth scan.Wal.records 2 in
  (* flip one payload byte of record 3: its CRC must fail, and records
     4..6 — some in later segments — become unreachable past the gap *)
  let fd = Unix.openfile r3.Wal.file [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (r3.Wal.offset + 16) Unix.SEEK_SET);
  let b = Bytes.make 1 '\xff' in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
  ignore (Unix.lseek fd (r3.Wal.offset + 16) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let t, rcv = Store.recover ~verify:true ~dir () in
  check_int "stopped before the corrupt record" 2 rcv.Store.last_seq;
  check "damage reported" true (rcv.Store.truncated <> None);
  let expect = Delta.apply (Gen.cycle 24) (List.concat (List.filteri (fun i _ -> i < 2) some_deltas)) in
  check "recovered the verified prefix" true (Graph.equal expect (Store.graph t));
  Store.close t;
  rm_rf dir

let test_crash_truncated_snapshot () =
  let dir = tmp_dir "crash_snap" in
  let st = build_store dir in
  ignore (Store.write_snapshot st);
  let live = Store.graph st in
  Store.close st;
  let _, newest = List.hd (List.rev (Snapshot.list_dir ~dir)) in
  Unix.truncate newest ((Unix.stat newest).Unix.st_size / 2);
  let t, rcv = Store.recover ~verify:true ~dir () in
  check "newest snapshot rejected" true (List.length rcv.Store.snapshots_skipped = 1);
  check_int "fell back to the initial snapshot" 0 rcv.Store.snapshot_seq;
  check_int "replayed the full log instead" 6 rcv.Store.replayed;
  check "exact pre-crash state" true (Graph.equal live (Store.graph t));
  Store.close t;
  rm_rf dir

let test_crash_interrupted_rename () =
  let dir = tmp_dir "crash_rename" in
  let st = build_store dir in
  ignore (Store.write_snapshot st);
  let live = Store.graph st in
  Store.close st;
  let _, newest = List.hd (List.rev (Snapshot.list_dir ~dir)) in
  (* as if the crash hit after writing the temp file, before rename *)
  Sys.rename newest (newest ^ ".tmp");
  let t, rcv = Store.recover ~verify:true ~dir () in
  check_int "tmp file invisible, fell back" 0 rcv.Store.snapshot_seq;
  check "exact pre-crash state" true
    (rcv.Store.last_seq = 6 && Graph.equal live (Store.graph t));
  check "tmp residue swept" true
    (not (Sys.file_exists (newest ^ ".tmp")));
  Store.close t;
  rm_rf dir

(* ---------------------------------------------------------------- *)
(* Acceptance *)

let test_crash_harness () =
  let dir = tmp_dir "crash_harness" in
  let report = Crash.run ~seed:5 ~n:40 ~batches:12 ~dir () in
  if not (Harness.ok report) then
    Alcotest.failf "crash harness: %s" (Format.asprintf "%a" Crash.pp_report report);
  (* every scenario but the final round trip is a crash site *)
  check "several sites injected" true (report.Harness.scenarios - 1 >= 10);
  check "both regimes observed" true
    (Harness.count report "exact" > 0 && Harness.count report "prefix" > 0);
  rm_rf dir

(* snapshot load must beat the text parser decisively; the bench gates
   the >= 10x headline at n=2000, this is a generous in-test floor *)
let test_snapshot_load_fast_path () =
  let g = Gen.random_connected (Rand.create 3) 2000 0.004 in
  let text = Graph_io.to_string g in
  let snap = Snapshot.to_string { Snapshot.seq = 0; graph = g; spanners = [] } in
  let best f =
    let b = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      b := min !b (Unix.gettimeofday () -. t0)
    done;
    !b
  in
  let t_text = best (fun () -> Graph_io.of_string text) in
  let t_snap = best (fun () -> Snapshot.of_string snap) in
  check "binary load at least 3x the text parser" true (t_snap *. 3. < t_text)

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "of_canonical validation" `Quick test_of_canonical_validate;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "snapshot rejects damage" `Quick test_snapshot_rejects_damage;
          Alcotest.test_case "restore = init" `Quick test_restore_equivalence;
          Alcotest.test_case "export_trees = per-root reference" `Quick
            test_export_trees_reference;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "every:N across rotation" `Quick test_wal_every_n_rotation;
          Alcotest.test_case "policy parse" `Quick test_wal_policy_parse;
        ] );
      ( "store",
        [
          Alcotest.test_case "recover" `Quick test_store_recover;
          Alcotest.test_case "quiescent append" `Quick test_store_quiescent_append;
          Alcotest.test_case "compact" `Quick test_store_compact;
        ] );
      ( "crash points",
        [
          Alcotest.test_case "torn final record" `Quick test_crash_torn_final_record;
          Alcotest.test_case "corrupt mid-segment CRC" `Quick test_crash_corrupt_mid_segment;
          Alcotest.test_case "truncated snapshot" `Quick test_crash_truncated_snapshot;
          Alcotest.test_case "interrupted rename" `Quick test_crash_interrupted_rename;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "seeded crash harness" `Slow test_crash_harness;
          Alcotest.test_case "snapshot load fast path" `Slow test_snapshot_load_fast_path;
        ] );
    ]
