open Rs_obs
module Crc32 = Rs_graph.Crc32

let c_frames_in = Obs.counter "net/frames_in"
let c_frames_out = Obs.counter "net/frames_out"
let c_bytes_in = Obs.counter "net/bytes_in"
let c_bytes_out = Obs.counter "net/bytes_out"
let c_read_timeouts = Obs.counter "net/read_timeouts"
let c_write_timeouts = Obs.counter "net/write_timeouts"
let c_frame_errors = Obs.counter "net/frame_errors"

type error = Timeout | Closed | Corrupt of string

let error_to_string = function
  | Timeout -> "deadline exceeded"
  | Closed -> "connection closed by peer"
  | Corrupt reason -> "corrupt frame: " ^ reason

let max_payload = 1 lsl 26
let header_len = 8

(* A peer that vanishes mid-write must surface as [Error Closed], not
   kill the process: writes to a severed socket raise SIGPIPE before
   [EPIPE] can be returned, so the transport ignores the signal once,
   at link time. *)
let () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ | (exception (Invalid_argument _ | Sys_error _)) -> ()

(* [SO_RCVTIMEO]/[SO_SNDTIMEO] turn a blocked read or write into
   [EAGAIN] after the timeout — per-operation deadlines without
   nonblocking state machines. Sockets support them; for other fds
   (pipes in tests) the setsockopt fails and the op simply blocks,
   which those callers accept. *)
let sockopt fd opt t =
  try Unix.setsockopt_float fd opt t with Unix.Unix_error _ | Invalid_argument _ -> ()

let set_timeout fd opt timeout_s = sockopt fd opt (Float.max 0.001 timeout_s)

let is_timeout = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> true
  | _ -> false

let is_closed = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN | Unix.EBADF | Unix.ESHUTDOWN ->
      true
  | _ -> false

(* Write all of [s], surviving partial writes. *)
let write_all fd ~timeout_s s =
  set_timeout fd Unix.SO_SNDTIMEO timeout_s;
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write fd b off (len - off) with
      | 0 ->
          Obs.incr c_write_timeouts;
          Error Timeout
      | k -> go (off + k)
      | exception Unix.Unix_error (e, _, _) when is_timeout e ->
          Obs.incr c_write_timeouts;
          Error Timeout
      | exception Unix.Unix_error (e, _, _) when is_closed e -> Error Closed
      | exception Unix.Unix_error (e, _, _) ->
          Error (Corrupt (Unix.error_message e))
  in
  go 0

(* Read exactly [len] bytes. [boundary] says the read starts a frame:
   only there is a clean close [Closed] and a passed deadline
   [Timeout]. Past the first byte of a frame either one is [Corrupt] —
   the stream is out of step, and a caller that retried after a
   [Timeout] would read the rest of the frame as a header. [idle]
   waits for the first byte with no deadline (a zero SO_RCVTIMEO is
   none: the read blocks until data, a close or a shutdown);
   [timeout_s] holds from then on. *)
let read_exact ?(idle = false) fd ~timeout_s ~boundary len =
  if idle then sockopt fd Unix.SO_RCVTIMEO 0. else set_timeout fd Unix.SO_RCVTIMEO timeout_s;
  let b = Bytes.create len in
  let mid_frame reason =
    Obs.incr c_frame_errors;
    Error (Corrupt reason)
  in
  let rec go off =
    if off >= len then Ok (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 && boundary then Error Closed else mid_frame "peer closed mid-frame"
      | k ->
          if off = 0 && idle then set_timeout fd Unix.SO_RCVTIMEO timeout_s;
          go (off + k)
      | exception Unix.Unix_error (e, _, _) when is_timeout e ->
          Obs.incr c_read_timeouts;
          if off = 0 && boundary then Error Timeout
          else mid_frame "deadline passed mid-frame"
      | exception Unix.Unix_error (e, _, _) when is_closed e ->
          if off = 0 && boundary then Error Closed else mid_frame "peer reset mid-frame"
      | exception Unix.Unix_error (e, _, _) ->
          Error (Corrupt (Unix.error_message e))
  in
  go 0

let send fd ~timeout_s payload =
  let len = String.length payload in
  if len > max_payload then
    Error (Corrupt (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" len max_payload))
  else begin
    let buf = Buffer.create (header_len + len) in
    Rs_store.Binio.w_u32 buf len;
    Rs_store.Binio.w_u32 buf (Crc32.of_string payload);
    Buffer.add_string buf payload;
    match write_all fd ~timeout_s (Buffer.contents buf) with
    | Ok () ->
        Obs.incr c_frames_out;
        Obs.add c_bytes_out (header_len + len);
        Ok ()
    | Error _ as e -> e
  end

let recv ?idle fd ~timeout_s =
  match read_exact ?idle fd ~timeout_s ~boundary:true header_len with
  | Error _ as e -> e
  | Ok hdr -> (
      let len = Int32.to_int (String.get_int32_le hdr 0) land 0xFFFFFFFF in
      let crc = Int32.to_int (String.get_int32_le hdr 4) land 0xFFFFFFFF in
      if len > max_payload then begin
        Obs.incr c_frame_errors;
        Error
          (Corrupt (Printf.sprintf "frame announces %d bytes (cap %d)" len max_payload))
      end
      else
        match read_exact fd ~timeout_s ~boundary:false len with
        | Error _ as e -> e
        | Ok payload ->
            if Crc32.of_string payload <> crc then begin
              Obs.incr c_frame_errors;
              Error (Corrupt "payload checksum mismatch")
            end
            else begin
              Obs.incr c_frames_in;
              Obs.add c_bytes_in (header_len + len);
              Ok payload
            end)
