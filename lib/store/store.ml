open Rs_graph
open Rs_dynamic
open Rs_obs

let c_recoveries = Obs.counter "store/recoveries"
let c_replayed = Obs.counter "store/replayed_records"
let c_truncations = Obs.counter "store/truncations"
let c_skipped = Obs.counter "store/snapshots_skipped"
let c_compactions = Obs.counter "store/compactions"

type t = {
  dir : string;
  policy : Wal.policy;
  segment_bytes : int;
  mutable seq : int;
  mutable g : Graph.t;
  mutable states : (Repair.spec * Repair.t) list;
  mutable states_stale : bool;
      (* true after an [append ~repair:false]: [states] lag [g] and
         must be re-derived by [rebuild] before they are served *)
  mutable wal : Wal.writer;
  mutable closed : bool;
}

let snapshot_value t =
  if t.states_stale then
    invalid_arg "Store.snapshot_value: spanner states are stale (rebuild first)";
  { Snapshot.seq = t.seq;
    graph = t.g;
    spanners =
      List.map
        (fun (spec, st) ->
          { Snapshot.spec; trees = Repair.export_trees st; union = Repair.pairs st })
        t.states }

let create ?(policy = Wal.Always) ?(segment_bytes = 1 lsl 20) ~dir ~specs g =
  Harness.mkdir_p dir;
  if Snapshot.list_dir ~dir <> [] || Wal.segment_files ~dir <> [] then
    failwith (Printf.sprintf "Store.create: %s already contains a store (recover it instead)" dir);
  let states = List.map (fun spec -> (spec, Repair.init spec g)) specs in
  let t =
    { dir; policy; segment_bytes; seq = 0; g; states; states_stale = false;
      wal = Wal.create_writer ~policy ~segment_bytes ~dir ~next_seq:1 (); closed = false }
  in
  ignore (Snapshot.write ~dir (snapshot_value t));
  t

let graph t = t.g
let seq t = t.seq
let dir t = t.dir

let states t =
  if t.states_stale then
    invalid_arg "Store.states: spanner states are stale (rebuild first)";
  t.states

let states_stale t = t.states_stale

let append ?(repair = true) t delta =
  if t.closed then invalid_arg "Store.append: store is closed";
  if repair && t.states_stale then
    invalid_arg "Store.append: spanner states are stale (rebuild first)";
  (* validate first — an invalid delta must not reach the log; the
     resolved change (net effect and patched graph) is shared by every
     maintained spanner *)
  let change = Delta.change t.g delta in
  if Delta.quiescent change then []
  else begin
    let seq = Wal.append t.wal delta in
    t.seq <- seq;
    t.g <- change.Delta.after;
    if repair then List.map (fun (_, st) -> Repair.apply_change st change) t.states
    else begin
      (* log-and-defer: the WAL and graph advance, the maintained
         spanners intentionally lag — the circuit-breaker path that
         trades incremental repair for one batched [rebuild] *)
      t.states_stale <- true;
      []
    end
  end

let rebuild t =
  if t.closed then invalid_arg "Store.rebuild: store is closed";
  Obs.with_span "store/rebuild" @@ fun () ->
  t.states <- List.map (fun (spec, _) -> (spec, Repair.init spec t.g)) t.states;
  t.states_stale <- false

let sync_to t g' =
  match Delta.diff t.g g' with [] -> [] | delta -> append t delta

let write_snapshot t = Snapshot.write ~dir:t.dir (snapshot_value t)

let compact t =
  Obs.with_span "store/compact" @@ fun () ->
  if t.closed then invalid_arg "Store.compact: store is closed";
  let path = write_snapshot t in
  (* every WAL record and older snapshot is now folded into [path]:
     drop them all and restart the log right above the snapshot *)
  Wal.close_writer t.wal;
  List.iter (fun (_, file) -> Sys.remove file) (Wal.segment_files ~dir:t.dir);
  List.iter
    (fun (sseq, file) -> if sseq < t.seq then Sys.remove file)
    (Snapshot.list_dir ~dir:t.dir);
  t.wal <-
    Wal.create_writer ~policy:t.policy ~segment_bytes:t.segment_bytes ~dir:t.dir
      ~next_seq:(t.seq + 1) ();
  Obs.incr c_compactions;
  path

let close t =
  if not t.closed then begin
    Wal.close_writer t.wal;
    t.closed <- true
  end

(* {1 Recovery} *)

type recovery = {
  snapshot_seq : int;
  snapshot_file : string;
  last_seq : int;
  replayed : int;
  truncated : Wal.truncation option;
  snapshots_skipped : (string * string) list;
}

let pp_recovery fmt r =
  Format.fprintf fmt "@[<v>snapshot seq %d (%s)@,replayed %d WAL records -> seq %d"
    r.snapshot_seq
    (Filename.basename r.snapshot_file)
    r.replayed r.last_seq;
  (match r.truncated with
  | Some tr -> Format.fprintf fmt "@,WAL truncated: %a" Wal.pp_truncation tr
  | None -> ());
  List.iter
    (fun (file, reason) ->
      Format.fprintf fmt "@,skipped corrupt snapshot %s: %s" (Filename.basename file) reason)
    r.snapshots_skipped;
  Format.fprintf fmt "@]"

let recover ?(policy = Wal.Always) ?(segment_bytes = 1 lsl 20) ?(verify = false) ~dir () =
  Obs.with_span "store/recover" @@ fun () ->
  Obs.incr c_recoveries;
  Snapshot.remove_temp ~dir;
  let skipped = ref [] in
  let snap, states, snap_file =
    Obs.with_span "load_snapshot" @@ fun () ->
    let rec attempt = function
      | [] ->
          failwith
            (Printf.sprintf "Store.recover: no usable snapshot in %s (%d corrupt skipped)" dir
               (List.length !skipped))
      | (_, path) :: rest -> (
          match
            let snap = Snapshot.read path in
            let states =
              List.map
                (fun sp ->
                  let st = Repair.restore sp.Snapshot.spec snap.Snapshot.graph ~trees:sp.trees in
                  (* the stored union is redundant with the trees; a
                     disagreement means the section set is internally
                     inconsistent — reject the whole file *)
                  if Repair.pairs st <> sp.union then
                    failwith "stored spanner union disagrees with the per-root trees";
                  (sp.spec, st))
                snap.Snapshot.spanners
            in
            (snap, states, path)
          with
          | v -> v
          | exception (Binio.Corrupt reason | Failure reason | Sys_error reason) ->
              skipped := (path, reason) :: !skipped;
              Obs.incr c_skipped;
              attempt rest)
    in
    attempt (List.rev (Snapshot.list_dir ~dir))
  in
  let scan = Wal.scan_dir ~dir ~after_seq:snap.Snapshot.seq in
  let g = ref snap.Snapshot.graph in
  let last = ref snap.Snapshot.seq in
  let replayed = ref 0 in
  let truncated = ref scan.Wal.truncation in
  Obs.with_span "replay" (fun () ->
      let stop = ref false in
      List.iter
        (fun (r : Wal.record) ->
          if not !stop then
            match Delta.change !g r.Wal.delta with
            | change ->
                (* [change] validated every op, so no apply below can
                   raise *)
                List.iter (fun (_, st) -> ignore (Repair.apply_change st change)) states;
                g := change.Delta.after;
                last := r.Wal.seq;
                incr replayed;
                Obs.incr c_replayed
            | exception (Invalid_argument reason | Failure reason) ->
                (* checksummed but semantically inapplicable — treat as
                   damage and keep the verified prefix *)
                stop := true;
                truncated :=
                  Some
                    { Wal.t_file = r.Wal.file; t_offset = r.Wal.offset;
                      t_reason = "record does not apply: " ^ reason })
        scan.Wal.records);
  (match !truncated with
  | Some tr ->
      Wal.truncate ~dir tr;
      Obs.incr c_truncations
  | None -> ());
  if verify then
    Obs.with_span "verify" (fun () ->
        Repair.check ~what:"Store.recover" !g
          (List.map (fun (spec, st) -> (spec, Repair.spanner st)) states));
  let t =
    { dir; policy; segment_bytes; seq = !last; g = !g; states; states_stale = false;
      wal = Wal.create_writer ~policy ~segment_bytes ~dir ~next_seq:(!last + 1) ();
      closed = false }
  in
  ( t,
    { snapshot_seq = snap.Snapshot.seq; snapshot_file = snap_file; last_seq = !last;
      replayed = !replayed; truncated = !truncated; snapshots_skipped = List.rev !skipped } )
