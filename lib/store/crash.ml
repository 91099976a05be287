open Rs_graph
open Rs_dynamic
open Harness

let pp_report fmt r =
  (* every scenario but the last is a crash site; the last is the
     unmutated round trip *)
  Format.fprintf fmt
    "@[<v>crash sites: %d (%d exact recoveries, %d verified prefixes)@,round trip: %s%a@]"
    (r.scenarios - 1) (count r "exact") (count r "prefix")
    (if List.exists (fun f -> f.scenario = "round-trip") r.failures then "FAILED"
     else "byte-identical")
    pp_failures r

(* {1 The plan} *)

let run ?(specs = [ Repair.Gdy_k { k = 1 }; Repair.Mis { r = 2 } ]) ?(sites = 4) ~seed ~n
    ~batches ~dir () =
  Harness.run ~suite:"Crash.run" ~min_n:2 ~min_batches:2 ~seed ~n ~batches ~dir @@ fun rand ->
  let g0 = Gen.random_connected rand n (4.0 /. float_of_int n) in
  let base = Filename.concat dir "base" in
  rm_rf base;
  (* tiny segments force multi-segment histories, so cross-segment
     anomalies (gaps after a truncated tail) are actually exercised *)
  let store = Store.create ~policy:Wal.Always ~segment_bytes:256 ~dir:base ~specs g0 in
  let mid = batches / 2 in
  let expected = Array.make (batches + 1) g0 in
  for s = 1 to batches do
    let delta = random_delta rand (Store.graph store) in
    ignore (Store.append store delta);
    if Store.seq store <> s then
      failwith (Printf.sprintf "Crash.run: append %d landed at seq %d" s (Store.seq store));
    expected.(s) <- Store.graph store;
    if s = mid then ignore (Store.write_snapshot store)
  done;
  let live_bytes = Snapshot.to_string (Store.snapshot_value store) in
  Store.close store;

  (* record map of the pristine log, for choosing crash sites and for
     computing what the best recoverable prefix is *)
  let scan = Wal.scan_dir ~dir:base ~after_seq:0 in
  (match scan.Wal.truncation with
  | Some tr -> failwith (Format.asprintf "Crash.run: pristine WAL unreadable: %a" Wal.pp_truncation tr)
  | None -> ());
  let records = Array.of_list scan.Wal.records in
  if Array.length records <> batches then
    failwith
      (Printf.sprintf "Crash.run: pristine WAL holds %d records, appended %d"
         (Array.length records) batches);
  let record_len r =
    let s = In_channel.with_open_bin r.Wal.file In_channel.input_all in
    16 + (Int32.to_int (String.get_int32_le s r.Wal.offset) land 0xFFFFFFFF)
  in
  let last_record = records.(batches - 1) in
  let last_seg = last_record.Wal.file in
  let file_size f = (Unix.stat f).Unix.st_size in
  let newest_snap =
    match List.rev (Snapshot.list_dir ~dir:base) with
    | (sseq, path) :: _ -> (sseq, path)
    | [] -> failwith "Crash.run: base store has no snapshot"
  in
  if fst newest_snap <> mid then
    failwith (Printf.sprintf "Crash.run: newest snapshot at seq %d, expected %d" (fst newest_snap) mid);

  (* best recoverable seq when the log becomes unusable from record
     [s] on: everything below [s], topped up by the mid snapshot *)
  let best_without s = max mid (s - 1) in

  (* each case recovers a damaged copy of [base] and must land exactly
     on [want], with the live history's graph *)
  let cases = ref [] in
  let add name mutate want =
    let case () =
      let d = Filename.concat dir ("case-" ^ name) in
      copy_dir base d;
      mutate d;
      match Store.recover ~verify:true ~dir:d () with
      | exception Failure reason -> failwith ("recovery failed: " ^ reason)
      | exception Binio.Corrupt reason -> failwith ("recovery raised Corrupt: " ^ reason)
      | t, rcv ->
          let seq = rcv.Store.last_seq in
          Store.close t;
          if seq <> want then
            failwith (Printf.sprintf "recovered seq %d, best recoverable prefix is %d" seq want);
          if not (Graph.equal (Store.graph t) expected.(seq)) then
            failwith (Printf.sprintf "recovered graph at seq %d differs from live history" seq);
          rm_rf d;
          [ ((if seq = batches then "exact" else "prefix"), 1) ]
    in
    cases := (name, case) :: !cases
  in

  (* torn WAL tail: cut the last segment at sampled offsets inside the
     final record — header bytes, payload bytes — and exactly at its
     start (the post-write-pre-fsync boundary crash) *)
  let lr_len = record_len last_record in
  add "torn-tail-boundary"
    (fun d -> truncate_file (Filename.concat d (Filename.basename last_seg)) last_record.Wal.offset)
    (best_without last_record.Wal.seq);
  for i = 1 to sites do
    let cut = last_record.Wal.offset + 1 + Rand.int rand (lr_len - 1) in
    add
      (Printf.sprintf "torn-tail-mid-%d" i)
      (fun d -> truncate_file (Filename.concat d (Filename.basename last_seg)) cut)
      (best_without last_record.Wal.seq)
  done;
  (* several records lost at once: cut at an earlier record boundary in
     the last segment (a longer unsynced tail) *)
  let in_last_seg = Array.to_list records |> List.filter (fun r -> r.Wal.file = last_seg) in
  (match in_last_seg with
  | first_in_last :: _ when List.length in_last_seg >= 2 ->
      add "lost-unsynced-tail"
        (fun d ->
          truncate_file (Filename.concat d (Filename.basename last_seg)) first_in_last.Wal.offset)
        (best_without first_in_last.Wal.seq)
  | _ -> ());
  (* torn segment header on the last segment *)
  add "torn-segment-header"
    (fun d -> truncate_file (Filename.concat d (Filename.basename last_seg)) 8)
    (best_without (match in_last_seg with r :: _ -> r.Wal.seq | [] -> last_record.Wal.seq));
  (* checksum-corrupting flips: one in a mid-history record (dropping
     every later segment across the gap), one in the final record *)
  let mid_record = records.(batches / 2) in
  add "corrupt-mid-crc"
    (fun d ->
      flip_byte
        (Filename.concat d (Filename.basename mid_record.Wal.file))
        (mid_record.Wal.offset + 16 + Rand.int rand (record_len mid_record - 16)))
    (best_without mid_record.Wal.seq);
  add "corrupt-seq-field"
    (fun d ->
      flip_byte (Filename.concat d (Filename.basename last_seg)) (last_record.Wal.offset + 8))
    (best_without last_record.Wal.seq);
  (* snapshot damage: recovery must fall back to the seq-0 snapshot and
     replay the whole log — the full pre-crash state *)
  let snap_base = Filename.basename (snd newest_snap) in
  let snap_size = file_size (snd newest_snap) in
  for i = 1 to sites do
    let cut = 1 + Rand.int rand (snap_size - 1) in
    add
      (Printf.sprintf "snapshot-truncated-%d" i)
      (fun d -> truncate_file (Filename.concat d snap_base) cut)
      batches
  done;
  add "snapshot-bitflip"
    (fun d -> flip_byte (Filename.concat d snap_base) (Rand.int rand snap_size))
    batches;
  add "interrupted-rename"
    (fun d ->
      let p = Filename.concat d snap_base in
      Sys.rename p (p ^ ".tmp"))
    batches;

  (* unmutated round trip: recovered state must re-encode to the exact
     bytes of the live state at close *)
  let round_trip () =
    let d = Filename.concat dir "case-round-trip" in
    copy_dir base d;
    match Store.recover ~verify:true ~dir:d () with
    | exception Failure reason -> failwith ("recovery failed: " ^ reason)
    | t, rcv ->
        let got = Snapshot.to_string (Store.snapshot_value t) in
        Store.close t;
        if rcv.Store.last_seq <> batches then
          failwith (Printf.sprintf "recovered seq %d of %d" rcv.Store.last_seq batches);
        if got <> live_bytes then failwith "recovered snapshot bytes differ from live state";
        rm_rf d;
        []
  in
  List.rev (("round-trip", round_trip) :: !cases)
