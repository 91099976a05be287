open Rs_obs
module Service = Rs_serve.Service
module Store = Rs_store.Store
module Wal = Rs_store.Wal
module Snapshot = Rs_store.Snapshot
module Binio = Rs_store.Binio
module Crc32 = Rs_graph.Crc32
module Rand = Rs_graph.Rand

let c_records_streamed = Obs.counter "net/records_streamed"
let c_heartbeats = Obs.counter "net/heartbeats"
let c_ship_requests = Obs.counter "net/ship_requests"
let c_ship_bytes = Obs.counter "net/ship_bytes"
let c_handshake_rejects = Obs.counter "net/handshakes_rejected"
let g_followers = Obs.gauge "net/followers"
let c_applied = Obs.counter "replica/records_applied"
let c_reconnects = Obs.counter "replica/reconnects"
let c_snapshot_bytes = Obs.counter "replica/snapshot_bytes"
let c_stream_rejects = Obs.counter "replica/stream_rejects"
let g_lag = Obs.gauge "replica/lag"
let g_connected = Obs.gauge "replica/connected"

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quiet fd =
  try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* {1 Epoch fencing} *)

let epoch_file dir = Filename.concat dir "epoch"

let read_epoch ~dir =
  match In_channel.with_open_text (epoch_file dir) In_channel.input_all with
  | s -> (
      match int_of_string_opt (String.trim s) with
      | Some e when e >= 0 -> e
      | _ -> 0)
  | exception Sys_error _ -> 0

let write_epoch ~dir e =
  let tmp = epoch_file dir ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc (string_of_int e ^ "\n"));
  Sys.rename tmp (epoch_file dir)

(* {1 Wire messages} — one tag byte, then Binio little-endian fields *)

let msg_query_hello = "Q"

let msg_join ~epoch ~have_seq =
  let b = Buffer.create 13 in
  Buffer.add_char b 'J';
  Binio.w_u32 b epoch;
  Binio.w_u64 b have_seq;
  Buffer.contents b

let msg_get ~offset ~snap_seq =
  let b = Buffer.create 17 in
  Buffer.add_char b 'G';
  Binio.w_u64 b offset;
  Binio.w_u64 b snap_seq;
  Buffer.contents b

let msg_ok ~epoch ~seq =
  let b = Buffer.create 13 in
  Buffer.add_char b 'K';
  Binio.w_u32 b epoch;
  Binio.w_u64 b seq;
  Buffer.contents b

let msg_meta ~epoch ~snap_seq ~total ~crc ~name =
  let b = Buffer.create (25 + String.length name) in
  Buffer.add_char b 'M';
  Binio.w_u32 b epoch;
  Binio.w_u64 b snap_seq;
  Binio.w_u64 b total;
  Binio.w_u32 b crc;
  Buffer.add_string b name;
  Buffer.contents b

let msg_record ~epoch raw =
  let b = Buffer.create (5 + String.length raw) in
  Buffer.add_char b 'R';
  Binio.w_u32 b epoch;
  Buffer.add_string b raw;
  Buffer.contents b

let msg_heartbeat ~epoch ~seq =
  let b = Buffer.create 13 in
  Buffer.add_char b 'H';
  Binio.w_u32 b epoch;
  Binio.w_u64 b seq;
  Buffer.contents b

let msg_line l = "L" ^ l
let msg_err reason = "E" ^ reason

(* {1 WAL tailing} — incremental follow of a live WAL directory: keep
   (segment, offset, next seq), read only freshly flushed bytes, hop
   to the next segment on rotation. *)

type tail = {
  t_dir : string;
  mutable t_file : string option;
  mutable t_offset : int;
  mutable t_next : int;
}

let tail_create dir next = { t_dir = dir; t_file = None; t_offset = 0; t_next = next }

(* Position at the segment holding [t_next], skipping earlier records. *)
let tail_seek t =
  let segs = Wal.segment_files ~dir:t.t_dir in
  let holder =
    List.fold_left
      (fun acc (fs, path) -> if fs <= t.t_next then Some (fs, path) else acc)
      None segs
  in
  match holder with
  | None -> false
  | Some (fs, path) -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> false
      | s ->
          let pos = ref Wal.header_len in
          let seq = ref fs in
          let ok = ref true in
          (try
             while !seq < t.t_next do
               match Wal.decode_record s ~pos:!pos with
               | `Record (sq, _, nxt) ->
                   seq := sq + 1;
                   pos := nxt
               | `Need_more | `Bad _ -> raise Exit
             done
           with Exit -> ok := false);
          if !ok then begin
            t.t_file <- Some path;
            t.t_offset <- !pos;
            true
          end
          else false)

(* New complete records as (seq, raw record bytes); [] when idle. *)
let rec tail_poll t =
  let ready = match t.t_file with Some _ -> true | None -> tail_seek t in
  if not ready then []
  else begin
    let path = Option.get t.t_file in
    let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    if size > t.t_offset then begin
      match
        In_channel.with_open_bin path (fun ic ->
            In_channel.seek ic (Int64.of_int t.t_offset);
            really_input_string ic (size - t.t_offset))
      with
      | exception (Sys_error _ | End_of_file) -> []
      | buf ->
          let out = ref [] and pos = ref 0 and stop = ref false in
          while not !stop do
            match Wal.decode_record buf ~pos:!pos with
            | `Record (seq, _, nxt) ->
                out := (seq, String.sub buf !pos (nxt - !pos)) :: !out;
                pos := nxt;
                t.t_next <- seq + 1;
                stop := nxt >= String.length buf
            | `Need_more | `Bad _ ->
                (* a record the writer is mid-flush on; retry next poll *)
                stop := true
          done;
          t.t_offset <- t.t_offset + !pos;
          List.rev !out
    end
    else begin
      (* rotation: a fresh segment starting exactly at the next seq *)
      match List.assoc_opt t.t_next (Wal.segment_files ~dir:t.t_dir) with
      | Some path' when t.t_file <> Some path' ->
          t.t_file <- Some path';
          t.t_offset <- Wal.header_len;
          tail_poll t
      | _ -> []
    end
  end

(* {1 Leader} *)

type leader_config = {
  frame_timeout_s : float;
  heartbeat_s : float;
  ship_chunk : int;
  sender_delay_s : float Atomic.t;
}

let default_leader_config () =
  {
    frame_timeout_s = 5.0;
    heartbeat_s = 0.5;
    ship_chunk = 1 lsl 18;
    sender_delay_s = Atomic.make 0.;
  }

type leader = {
  l_cfg : leader_config;
  l_env : Proto.env;
  l_service : Service.t;
  l_store_dir : string option;
  l_epoch : int;
  l_server : Tcp.server;
  l_followers : int Atomic.t;
  l_stop : bool Atomic.t;
}

let send_quiet ld fd payload =
  ignore (Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s payload)

(* An idle session waits for its next request with no deadline: the
   thread sleeps in [read] until a frame, a close, or the [shutdown]
   that [stop_leader] and [leader_drop_connections] give every
   connection. Inside a frame and on sends the frame deadline holds. *)
let query_session ld fd =
  let rec loop () =
    if Atomic.get ld.l_stop then ()
    else
      match Frame.recv fd ~idle:true ~timeout_s:ld.l_cfg.frame_timeout_s with
      | Error _ -> ()
      | Ok p when String.length p >= 1 && p.[0] = 'L' -> (
          let line = String.sub p 1 (String.length p - 1) in
          match Proto.exec ld.l_env line with
          | Proto.Reply r ->
              (match Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s (msg_line r) with
              | Ok () -> loop ()
              | Error _ -> ())
          | Proto.Silent -> (
              match Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s (msg_line "") with
              | Ok () -> loop ()
              | Error _ -> ())
          | Proto.Quit -> send_quiet ld fd (msg_line ""))
      | Ok _ -> send_quiet ld fd (msg_err "expected an 'L' request frame")
  in
  loop ()

let newest_snapshot dir =
  match List.rev (Snapshot.list_dir ~dir) with [] -> None | s :: _ -> Some s

let ship_session ld dir fd hello =
  Obs.incr c_ship_requests;
  match
    let r = Binio.reader ~pos:1 hello in
    let offset = Binio.r_u64 r in
    let snap_seq = Binio.r_u64 r in
    (offset, snap_seq)
  with
  | exception Binio.Corrupt m -> send_quiet ld fd (msg_err ("bad ship request: " ^ m))
  | offset, snap_seq_req -> (
      match newest_snapshot dir with
      | None -> send_quiet ld fd (msg_err "no snapshot available to ship")
      | Some (seq, path) -> (
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error m -> send_quiet ld fd (msg_err ("cannot read snapshot: " ^ m))
          | bytes ->
              let total = String.length bytes in
              let crc = Crc32.of_string bytes in
              let start =
                if snap_seq_req = seq && offset > 0 && offset <= total then offset
                else 0
              in
              let meta =
                msg_meta ~epoch:ld.l_epoch ~snap_seq:seq ~total ~crc
                  ~name:(Filename.basename path)
              in
              (match Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s meta with
              | Error _ -> ()
              | Ok () ->
                  let rec chunks pos =
                    if Atomic.get ld.l_stop then ()
                    else if pos >= total then send_quiet ld fd "D"
                    else begin
                      let d = Atomic.get ld.l_cfg.sender_delay_s in
                      if d > 0. then Unix.sleepf d;
                      let len = min ld.l_cfg.ship_chunk (total - pos) in
                      match
                        Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s
                          ("C" ^ String.sub bytes pos len)
                      with
                      | Ok () ->
                          Obs.add c_ship_bytes len;
                          chunks (pos + len)
                      | Error _ -> ()
                    end
                  in
                  chunks start)))

(* One WAL subscription, on the connection's own thread: send every
   record the tail holds, then wait for the next ack; a quiet
   [heartbeat_s] sends one heartbeat instead, so a replica tells a quiet
   leader from a dead link. Nothing is buffered per follower — the WAL
   on disk is the backlog, so a slow replica only lags. One that stops
   reading fills its socket buffer until a send misses the frame
   deadline, and a closed one is noticed at the next send. *)
let stream_session ld dir fd hello =
  match
    let r = Binio.reader ~pos:1 hello in
    let known_epoch = Binio.r_u32 r in
    let have_seq = Binio.r_u64 r in
    (known_epoch, have_seq)
  with
  | exception Binio.Corrupt m -> send_quiet ld fd (msg_err ("bad join request: " ^ m))
  | known_epoch, have_seq ->
      if known_epoch > ld.l_epoch then begin
        Obs.incr c_handshake_rejects;
        send_quiet ld fd
          (msg_err
             (Printf.sprintf "stale leader epoch %d < replica epoch %d" ld.l_epoch
                known_epoch))
      end
      else begin
        let floor =
          match Wal.segment_files ~dir with [] -> 0 | (fs, _) :: _ -> fs
        in
        let current = Service.ingested_seq ld.l_service in
        if floor > 0 && have_seq + 1 < floor then begin
          Obs.incr c_handshake_rejects;
          send_quiet ld fd
            (msg_err
               (Printf.sprintf
                  "resync required: WAL starts at seq %d, replica resumes at %d" floor
                  (have_seq + 1)))
        end
        else
          match
            Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s
              (msg_ok ~epoch:ld.l_epoch ~seq:current)
          with
          | Error _ -> ()
          | Ok () ->
              let nf = Atomic.fetch_and_add ld.l_followers 1 + 1 in
              Obs.set_gauge g_followers (float_of_int nf);
              let svc = ld.l_service and heartbeat_s = ld.l_cfg.heartbeat_s in
              let send payload =
                Frame.send fd ~timeout_s:ld.l_cfg.frame_timeout_s payload = Ok ()
              in
              let send_record (_, raw) =
                send (msg_record ~epoch:ld.l_epoch raw) && (Obs.incr c_records_streamed; true)
              in
              let t = tail_create dir (have_seq + 1) in
              (* records up to [seen] are in the file (the writer acks
                 after appending): an empty read waits for the next ack,
                 a non-empty one may stop at a rotation *)
              let rec loop () =
                if not (Atomic.get ld.l_stop) then begin
                  let seen = Service.ingested_seq svc in
                  match tail_poll t with
                  | _ :: _ as records -> if List.for_all send_record records then loop ()
                  | [] ->
                      let t0 = Unix.gettimeofday () in
                      if
                        Service.await ~timeout_s:heartbeat_s svc (fun () ->
                            Atomic.get ld.l_stop || Service.ingested_seq svc > seen)
                      then loop ()
                      (* [await] is false before its deadline only once the
                         service is killed: the stream ends there *)
                      else if
                        Unix.gettimeofday () -. t0 >= heartbeat_s
                        && send (msg_heartbeat ~epoch:ld.l_epoch ~seq:(Service.ingested_seq svc))
                      then begin
                        Obs.incr c_heartbeats;
                        loop ()
                      end
                end
              in
              Fun.protect loop ~finally:(fun () ->
                  let nf = Atomic.fetch_and_add ld.l_followers (-1) - 1 in
                  Obs.set_gauge g_followers (float_of_int nf))
      end

let lead ?config ?proto_env ?server ~service ~store_dir ~host ~port () =
  let l_cfg = match config with Some c -> c | None -> default_leader_config () in
  let epoch =
    match store_dir with
    | None -> 1
    | Some dir ->
        Rs_store.Harness.mkdir_p dir;
        let e = max 1 (read_epoch ~dir) in
        write_epoch ~dir e;
        e
  in
  match
    match server with Some s -> Ok s | None -> Tcp.listen ~host ~port
  with
  | Error _ as e -> e
  | Ok server ->
      let env = match proto_env with Some e -> e | None -> Proto.leader_env service in
      let ld =
        {
          l_cfg;
          l_env = env;
          l_service = service;
          l_store_dir = store_dir;
          l_epoch = epoch;
          l_server = server;
          l_followers = Atomic.make 0;
          l_stop = Atomic.make false;
        }
      in
      Tcp.serve server (fun fd ->
          match Frame.recv fd ~timeout_s:l_cfg.frame_timeout_s with
          | Error _ -> ()
          | Ok hello when String.length hello = 0 -> ()
          | Ok hello -> (
              match (hello.[0], store_dir) with
              | 'Q', _ -> query_session ld fd
              | 'G', Some dir -> ship_session ld dir fd hello
              | 'J', Some dir -> stream_session ld dir fd hello
              | ('G' | 'J'), None ->
                  send_quiet ld fd (msg_err "leader is ephemeral: no replication")
              | c, _ ->
                  send_quiet ld fd
                    (msg_err (Printf.sprintf "unknown hello tag %C" c))));
      Ok ld

let leader_port ld = Tcp.port ld.l_server
let leader_epoch ld = ld.l_epoch
let followers ld = Atomic.get ld.l_followers
let leader_set_refuse ld v = Tcp.set_refuse ld.l_server v
let leader_drop_connections ld = Tcp.drop_connections ld.l_server

let stop_leader ld =
  Atomic.set ld.l_stop true;
  (* followers waiting for the next ack end now, not a heartbeat later *)
  Service.wake ld.l_service;
  Tcp.stop ld.l_server

(* {1 Snapshot shipping (client side)} *)

(* snap-<seq>.rsnap.part: recover the seq so the leader can tell us
   whether resuming against it still makes sense *)
let find_part dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".part")
  |> function
  | [] -> None
  | n :: _ ->
      let path = Filename.concat dir n in
      let size = (Unix.stat path).Unix.st_size in
      let base = Filename.chop_suffix n ".part" in
      let seq =
        if
          String.length base > 11
          && String.sub base 0 5 = "snap-"
          && Filename.check_suffix base ".rsnap"
        then
          match int_of_string_opt (String.sub base 5 (String.length base - 11)) with
          | Some s -> s
          | None -> 0
        else 0
      in
      Some (path, size, seq)

let ship ?(timeout_s = 10.0) ~host ~port ~dir () =
  Rs_store.Harness.mkdir_p dir;
  let offset, snap_seq_req =
    match find_part dir with Some (_, size, seq) -> (size, seq) | None -> (0, 0)
  in
  match Tcp.connect ~host ~port ~timeout_s with
  | Error m -> Error m
  | Ok fd -> (
      let fail m =
        close_quiet fd;
        Error m
      in
      let frame_err e = Frame.error_to_string e in
      match Frame.send fd ~timeout_s (msg_get ~offset ~snap_seq:snap_seq_req) with
      | Error e -> fail ("ship request: " ^ frame_err e)
      | Ok () -> (
          match Frame.recv fd ~timeout_s with
          | Error e -> fail ("ship meta: " ^ frame_err e)
          | Ok p when String.length p >= 1 && p.[0] = 'E' ->
              fail ("leader refused ship: " ^ String.sub p 1 (String.length p - 1))
          | Ok p when String.length p >= 1 && p.[0] = 'M' -> (
              match
                let r = Binio.reader ~pos:1 p in
                let epoch = Binio.r_u32 r in
                let snap_seq = Binio.r_u64 r in
                let total = Binio.r_u64 r in
                let crc = Binio.r_u32 r in
                let name = Binio.r_string r ~len:(Binio.remaining r) in
                (epoch, snap_seq, total, crc, name)
              with
              | exception Binio.Corrupt m -> fail ("bad ship meta: " ^ m)
              | epoch, snap_seq, total, crc, name ->
                  if epoch > read_epoch ~dir then write_epoch ~dir epoch;
                  let target = Filename.concat dir name in
                  let part = target ^ ".part" in
                  let resume = snap_seq = snap_seq_req && offset > 0 && offset <= total in
                  if not resume then
                    (* different snapshot than the partial, or nothing
                       partial: start clean *)
                    Sys.readdir dir |> Array.iter (fun n ->
                        if Filename.check_suffix n ".part" then
                          Sys.remove (Filename.concat dir n));
                  let oc =
                    open_out_gen
                      (if resume then [ Open_wronly; Open_binary; Open_append ]
                       else [ Open_wronly; Open_binary; Open_creat; Open_trunc ])
                      0o644 part
                  in
                  let written = ref (if resume then offset else 0) in
                  let rec drain () =
                    match Frame.recv fd ~timeout_s with
                    | Error e -> Error ("ship stream: " ^ frame_err e)
                    | Ok p when String.length p >= 1 && p.[0] = 'C' ->
                        let len = String.length p - 1 in
                        output_substring oc p 1 len;
                        (* keep the partial's on-disk size honest: a
                           resume offsets from it, chunk by chunk *)
                        flush oc;
                        written := !written + len;
                        Obs.add c_snapshot_bytes len;
                        drain ()
                    | Ok "D" -> Ok ()
                    | Ok p when String.length p >= 1 && p.[0] = 'E' ->
                        Error ("leader aborted ship: " ^ String.sub p 1 (String.length p - 1))
                    | Ok _ -> Error "unexpected frame during ship"
                  in
                  let r = drain () in
                  close_out oc;
                  close_quiet fd;
                  (match r with
                  | Error m -> Error m
                  | Ok () ->
                      if !written <> total then
                        Error
                          (Printf.sprintf "ship incomplete: %d of %d bytes" !written
                             total)
                      else
                        let bytes =
                          In_channel.with_open_bin part In_channel.input_all
                        in
                        if Crc32.of_string bytes <> crc then begin
                          (* a torn or corrupted partial: discard so the
                             next attempt starts clean *)
                          Sys.remove part;
                          Error "shipped snapshot failed its checksum; partial discarded"
                        end
                        else begin
                          Sys.rename part target;
                          Ok (snap_seq, target)
                        end))
          | Ok _ -> fail "unexpected reply to ship request"))

(* {1 Query client} *)

let connect_query ~host ~port ~timeout_s =
  match Tcp.connect ~host ~port ~timeout_s with
  | Error _ as e -> e
  | Ok fd -> (
      match Frame.send fd ~timeout_s msg_query_hello with
      | Ok () -> Ok fd
      | Error e ->
          close_quiet fd;
          Error (Frame.error_to_string e))

let request fd ~timeout_s line =
  match Frame.send fd ~timeout_s (msg_line line) with
  | Error e -> Error (Frame.error_to_string e)
  | Ok () -> (
      match Frame.recv fd ~timeout_s with
      | Error e -> Error (Frame.error_to_string e)
      | Ok p when String.length p >= 1 && p.[0] = 'L' ->
          Ok (String.sub p 1 (String.length p - 1))
      | Ok p when String.length p >= 1 && p.[0] = 'E' ->
          Error (String.sub p 1 (String.length p - 1))
      | Ok _ -> Error "unexpected reply frame")

(* {1 Replica} *)

type replica_config = {
  r_frame_timeout_s : float;
  reconnect_base_s : float;
  reconnect_max_s : float;
  max_retries : int;
  seed : int;
  fsync : Wal.policy;
  apply_delay_s : float Atomic.t;
}

let default_replica_config () =
  {
    r_frame_timeout_s = 5.0;
    reconnect_base_s = 0.05;
    reconnect_max_s = 2.0;
    max_retries = 10;
    seed = 1;
    fsync = Wal.Every 32;
    apply_delay_s = Atomic.make 0.;
  }

type replica = {
  r_cfg : replica_config;
  r_dir : string;
  r_host : string;
  r_port : int;
  r_service : Service.t;
  r_ingest_capacity : int;
  r_epoch : int Atomic.t;
  r_leader_seq : int Atomic.t;
  r_connected : bool Atomic.t;
  r_ever_connected : bool Atomic.t;
  r_reconnects : int Atomic.t;
  r_gave_up : bool Atomic.t;
  r_stop : bool Atomic.t;
  r_err_m : Mutex.t;
  mutable r_err : string option;
  mutable r_fd : Unix.file_descr option;  (* under r_err_m *)
  mutable r_threads : Thread.t list;  (* under r_err_m; taken by [detach] *)
}

let set_err r m =
  Mutex.lock r.r_err_m;
  r.r_err <- Some m;
  Mutex.unlock r.r_err_m

let last_error r =
  Mutex.lock r.r_err_m;
  let e = r.r_err in
  Mutex.unlock r.r_err_m;
  e

let set_fd r fd =
  Mutex.lock r.r_err_m;
  r.r_fd <- fd;
  Mutex.unlock r.r_err_m

let replica_service r = r.r_service
let replica_epoch r = Atomic.get r.r_epoch
let connected r = Atomic.get r.r_connected
let gave_up r = Atomic.get r.r_gave_up
let reconnects r = Atomic.get r.r_reconnects

let lag_of leader_seq svc = max 0 (Atomic.get leader_seq - Service.ingested_seq svc)
let lag r = lag_of r.r_leader_seq r.r_service

let note_lag r =
  Obs.set_gauge g_lag (float_of_int (lag r));
  Obs.set_gauge g_connected (if connected r then 1. else 0.)

(* Offer one streamed delta. The service's bounded ingest queue is the
   replica's only buffer: while it is full the follower blocks until
   the writer frees a slot (only the follower offers on a replica, so
   the slot is still free when it offers again), its socket read
   stalls, and TCP carries the backpressure to the leader. Any other
   rejection (suspended ingest, shutdown) ends following. The wait
   reads the queue depth under the service's publication lock; the
   queue's own lock is taken inside it and never the other way. *)
let rec apply r delta =
  match Service.offer r.r_service delta with
  | Ok () ->
      Obs.incr c_applied;
      Ok ()
  | Error _ when Atomic.get r.r_stop -> Ok () (* detaching: the stream stops next *)
  | Error reason when String.starts_with ~prefix:"queue full" reason ->
      let can_offer () =
        let s = Service.status r.r_service in
        match s.Service.s_state with
        | Service.Degraded _ -> true (* the offer fails with the reason *)
        | Service.Serving | Service.Rebuilding -> s.Service.s_queue < r.r_ingest_capacity
      in
      ignore (Service.await r.r_service (fun () -> Atomic.get r.r_stop || can_offer ()));
      apply r delta
  | Error reason ->
      Atomic.set r.r_stop true;
      Error ("replica apply rejected: " ^ reason)

(* Read the stream until it ends; [Ok ()] only when detaching. *)
let stream r fd session_epoch have =
  let next = ref (have + 1) in
  let reject m =
    Obs.incr c_stream_rejects;
    Error m
  in
  let rec loop () =
    if Atomic.get r.r_stop then Ok ()
    else
      match Frame.recv fd ~timeout_s:r.r_cfg.r_frame_timeout_s with
      | Error Frame.Timeout ->
          (* heartbeats come every heartbeat_s << the frame deadline:
             silence this long means the link is dead *)
          Error "stream silent past the deadline"
      | Error Frame.Closed -> Error "leader closed the stream"
      | Error (Frame.Corrupt m) -> Error ("stream corrupt: " ^ m)
      | Ok p when String.length p >= 5 && p.[0] = 'R' -> (
          let epoch = Binio.r_u32 (Binio.reader ~pos:1 ~limit:5 p) in
          if epoch <> session_epoch then
            reject
              (Printf.sprintf "epoch fence: frame epoch %d, session epoch %d" epoch
                 session_epoch)
          else
            match Wal.decode_record p ~pos:5 with
            | `Bad m -> reject ("bad streamed record: " ^ m)
            | `Need_more -> reject "truncated streamed record"
            | `Record (seq, _, _) when seq <> !next ->
                reject (Printf.sprintf "sequence gap: streamed %d, expected %d" seq !next)
            | `Record (seq, delta, _) -> (
                let d = Atomic.get r.r_cfg.apply_delay_s in
                if d > 0. then Unix.sleepf d;
                match apply r delta with
                | Error _ as e -> e
                | Ok () ->
                    next := seq + 1;
                    if seq > Atomic.get r.r_leader_seq then Atomic.set r.r_leader_seq seq;
                    note_lag r;
                    loop ()))
      | Ok p when String.length p >= 13 && p.[0] = 'H' -> (
          match
            let rd = Binio.reader ~pos:1 p in
            let epoch = Binio.r_u32 rd in
            let seq = Binio.r_u64 rd in
            (epoch, seq)
          with
          | exception Binio.Corrupt m -> Error ("bad heartbeat: " ^ m)
          | epoch, _ when epoch <> session_epoch ->
              reject
                (Printf.sprintf "epoch fence: heartbeat epoch %d, session epoch %d" epoch
                   session_epoch)
          | _, seq ->
              if seq > Atomic.get r.r_leader_seq then Atomic.set r.r_leader_seq seq;
              note_lag r;
              loop ())
      | Ok p when String.length p >= 1 && p.[0] = 'E' ->
          Error ("disconnected by leader: " ^ String.sub p 1 (String.length p - 1))
      | Ok _ -> Error "unexpected frame on the stream"
  in
  loop ()

(* The follower: connect, handshake from the durable sequence number,
   stream, and on any disconnect reconnect with capped exponential
   backoff plus jitter. The same thread offers every record and
   reconnects, so once the service is idle its [ingested_seq] is the
   exact resume point: nothing is skipped or re-applied. *)
let follower r () =
  let rand = Rand.create r.r_cfg.seed in
  let attempts = ref 0 in
  let stopping () = Atomic.get r.r_stop in
  let backoff () =
    incr attempts;
    if !attempts > r.r_cfg.max_retries then begin
      Atomic.set r.r_gave_up true;
      true (* give up *)
    end
    else begin
      let base = r.r_cfg.reconnect_base_s *. (2. ** float_of_int (!attempts - 1)) in
      let capped = Float.min base r.r_cfg.reconnect_max_s in
      let jitter = capped *. 0.5 *. (float_of_int (Rand.int rand 1000) /. 1000.) in
      ignore (Service.await ~timeout_s:(capped +. jitter) r.r_service stopping);
      false
    end
  in
  let ( let* ) = Result.bind in
  let frame_err what res = Result.map_error (fun e -> what ^ Frame.error_to_string e) res in
  let session fd =
    ignore (Service.wait_idle ~cancel:stopping r.r_service);
    let have = Service.ingested_seq r.r_service in
    let hello = msg_join ~epoch:(Atomic.get r.r_epoch) ~have_seq:have in
    let* () = frame_err "join: " (Frame.send fd ~timeout_s:r.r_cfg.r_frame_timeout_s hello) in
    let* p = frame_err "join reply: " (Frame.recv fd ~timeout_s:r.r_cfg.r_frame_timeout_s) in
    if String.length p >= 13 && p.[0] = 'K' then
      match
        let rd = Binio.reader ~pos:1 p in
        let epoch = Binio.r_u32 rd in
        let seq = Binio.r_u64 rd in
        (epoch, seq)
      with
      | exception Binio.Corrupt m -> Error ("bad join reply: " ^ m)
      | epoch, _ when epoch < Atomic.get r.r_epoch ->
          Obs.incr c_stream_rejects;
          Error
            (Printf.sprintf "rejected deposed leader: stream epoch %d < replica epoch %d"
               epoch (Atomic.get r.r_epoch))
      | epoch, leader_seq ->
          if epoch > Atomic.get r.r_epoch then begin
            Atomic.set r.r_epoch epoch;
            write_epoch ~dir:r.r_dir epoch
          end;
          if leader_seq > Atomic.get r.r_leader_seq then
            Atomic.set r.r_leader_seq leader_seq;
          attempts := 0;
          if Atomic.get r.r_ever_connected then begin
            Atomic.incr r.r_reconnects;
            Obs.incr c_reconnects
          end;
          Atomic.set r.r_ever_connected true;
          Atomic.set r.r_connected true;
          note_lag r;
          let ended = stream r fd epoch have in
          Atomic.set r.r_connected false;
          note_lag r;
          ended
    else if String.length p >= 1 && p.[0] = 'E' then
      Error ("leader refused join: " ^ String.sub p 1 (String.length p - 1))
    else Error "unexpected join reply"
  in
  let rec loop () =
    if not (Atomic.get r.r_stop) then begin
      (match Tcp.connect ~host:r.r_host ~port:r.r_port ~timeout_s:2.0 with
      | Error e -> set_err r e
      | Ok fd ->
          set_fd r (Some fd);
          let ended = session fd in
          set_fd r None;
          close_quiet fd;
          Result.iter_error (set_err r) ended);
      if not (backoff ()) then loop ()
    end
  in
  loop ();
  Atomic.set r.r_connected false;
  note_lag r;
  (* an [await] on [gave_up] (the promote-on-disconnect trigger) *)
  Service.wake r.r_service

let follow ?config ?health_file ~service_config ~dir ~host ~port () =
  let cfg = match config with Some c -> c | None -> default_replica_config () in
  Rs_store.Harness.mkdir_p dir;
  (* bootstrap: an empty directory gets the leader's newest snapshot
     (resumable across torn attempts); an existing store resumes *)
  let rec bootstrap attempt =
    if Snapshot.list_dir ~dir <> [] then Ok ()
    else
      match ship ~timeout_s:cfg.r_frame_timeout_s ~host ~port ~dir () with
      | Ok _ -> Ok ()
      | Error e when attempt < cfg.max_retries ->
          ignore e;
          Unix.sleepf
            (Float.min cfg.reconnect_max_s
               (cfg.reconnect_base_s *. (2. ** float_of_int attempt)));
          bootstrap (attempt + 1)
      | Error e -> Error ("snapshot bootstrap failed: " ^ e)
  in
  match bootstrap 0 with
  | Error _ as e -> e
  | Ok () -> (
      match Store.recover ~policy:cfg.fsync ~verify:false ~dir () with
      | exception Failure m -> Error ("replica recover failed: " ^ m)
      | store, _recovery ->
          let epoch = Atomic.make (read_epoch ~dir) in
          let leader_seq = Atomic.make (Store.seq store) in
          let connected = Atomic.make false in
          (* the service's own clock writes the health file, this suffix included *)
          let health_suffix svc =
            Printf.sprintf " role=replica leader_seq=%d lag=%d connected=%b epoch=%d"
              (Atomic.get leader_seq) (lag_of leader_seq svc) (Atomic.get connected)
              (Atomic.get epoch)
          in
          let svc =
            Service.start ~health_suffix
              { service_config with Service.batch_max = 1; health_file }
              (Service.Durable store)
          in
          let r =
            {
              r_cfg = cfg;
              r_dir = dir;
              r_host = host;
              r_port = port;
              r_service = svc;
              r_ingest_capacity = service_config.Service.ingest_capacity;
              r_epoch = epoch;
              r_leader_seq = leader_seq;
              r_connected = connected;
              r_ever_connected = Atomic.make false;
              r_reconnects = Atomic.make 0;
              r_gave_up = Atomic.make false;
              r_stop = Atomic.make false;
              r_err_m = Mutex.create ();
              r_err = None;
              r_fd = None;
              r_threads = [];
            }
          in
          r.r_threads <- [ Thread.create (follower r) () ];
          Ok r)

(* Idempotent, and joins even when the follower already stopped itself
   (a rejected apply sets [r_stop]): the thread list is taken once. *)
let detach r =
  Atomic.set r.r_stop true;
  Service.wake r.r_service;
  Mutex.lock r.r_err_m;
  (* wake a blocked recv *)
  Option.iter shutdown_quiet r.r_fd;
  let threads = r.r_threads in
  r.r_threads <- [];
  Mutex.unlock r.r_err_m;
  List.iter Thread.join threads

let promote r =
  detach r;
  (* everything the follower offered must be folded in before the
     epoch changes hands *)
  ignore (Service.wait_idle ~timeout_s:30.0 r.r_service);
  let e = Atomic.get r.r_epoch + 1 in
  Atomic.set r.r_epoch e;
  write_epoch ~dir:r.r_dir e;
  e

let stop_replica r =
  detach r;
  Service.stop r.r_service

let kill_replica r =
  detach r;
  Service.kill r.r_service
