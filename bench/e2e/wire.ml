(* Client side of the serve protocol, child processes, and /proc.

   A connection is a non-blocking socket speaking the CRC-framed line
   protocol of lib/net ('Q' hello, then 'L' line frames each answered
   by one 'L' reply, in order). Any number of requests may be in
   flight on one connection: the server answers them in order, so each
   reply goes to the oldest waiting callback. One thread multiplexes
   every connection with [Unix.select] — the generator is a single
   thread by design. *)

module Crc32 = Rs_graph.Crc32

let now = Unix.gettimeofday

exception Conn_error of string

type conn = {
  name : string;
  fd : Unix.file_descr;
  mutable rb : Bytes.t;
  mutable rlen : int;
  mutable wb : Bytes.t;
  mutable wlen : int;
  waiting : (float -> string -> unit) Queue.t;
}

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.of_string payload));
  Bytes.blit_string payload 0 b 8 len;
  b

(* Bytes on the wire for one request and its reply. *)
let frame_bytes ~line ~reply = 8 + 1 + String.length line + 8 + 1 + String.length reply

let append_out c b =
  let need = c.wlen + Bytes.length b in
  if need > Bytes.length c.wb then begin
    let nb = Bytes.create (max need (2 * Bytes.length c.wb)) in
    Bytes.blit c.wb 0 nb 0 c.wlen;
    c.wb <- nb
  end;
  Bytes.blit b 0 c.wb c.wlen (Bytes.length b);
  c.wlen <- need

let connect ~name ~port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise (Conn_error (Printf.sprintf "%s: connect :%d: %s" name port (Unix.error_message e))));
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  let c =
    { name; fd; rb = Bytes.create 65536; rlen = 0; wb = Bytes.create 4096; wlen = 0;
      waiting = Queue.create () }
  in
  append_out c (frame "Q");
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Queue [line]; [k time reply] runs when its reply arrives. *)
let send c line k =
  append_out c (frame ("L" ^ line));
  Queue.push k c.waiting

let outstanding c = Queue.length c.waiting

let flush c =
  if c.wlen > 0 then
    match Unix.write c.fd c.wb 0 c.wlen with
    | k ->
        Bytes.blit c.wb k c.wb 0 (c.wlen - k);
        c.wlen <- c.wlen - k
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        raise (Conn_error (c.name ^ ": write: " ^ Unix.error_message e))

let deliver c =
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    let avail = c.rlen - !pos in
    if avail < 8 then continue := false
    else begin
      let len = Int32.to_int (Bytes.get_int32_le c.rb !pos) land 0xFFFFFFFF in
      let crc = Int32.to_int (Bytes.get_int32_le c.rb (!pos + 4)) land 0xFFFFFFFF in
      if avail < 8 + len then continue := false
      else begin
        let payload = Bytes.sub_string c.rb (!pos + 8) len in
        pos := !pos + 8 + len;
        if Crc32.of_string payload <> crc then
          raise (Conn_error (c.name ^ ": reply checksum mismatch"));
        if len = 0 || payload.[0] <> 'L' then
          raise (Conn_error (Printf.sprintf "%s: unexpected frame %S" c.name payload));
        match Queue.take_opt c.waiting with
        | None -> raise (Conn_error (c.name ^ ": reply without a request"))
        | Some k -> k (now ()) (String.sub payload 1 (len - 1))
      end
    end
  done;
  Bytes.blit c.rb !pos c.rb 0 (c.rlen - !pos);
  c.rlen <- c.rlen - !pos

let read c =
  if c.rlen = Bytes.length c.rb then begin
    let nb = Bytes.create (2 * c.rlen) in
    Bytes.blit c.rb 0 nb 0 c.rlen;
    c.rb <- nb
  end;
  match Unix.read c.fd c.rb c.rlen (Bytes.length c.rb - c.rlen) with
  | 0 -> raise (Conn_error (c.name ^ ": connection closed by server"))
  | k ->
      c.rlen <- c.rlen + k;
      deliver c
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise (Conn_error (c.name ^ ": read: " ^ Unix.error_message e))

(* One select round: write what can be written, read and dispatch what
   has arrived, waiting at most [timeout] seconds. *)
let pump conns ~timeout =
  List.iter flush conns;
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if c.wlen > 0 then Some c.fd else None) conns in
  match Unix.select rd wr [] (Float.max 0. timeout) with
  | r, _, _ -> List.iter (fun c -> if List.memq c.fd r then read c) conns
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* Drive [conns] until [fin ()] holds. [tick now] sends whatever is
   due and returns the next time it wants to run. Raises [Conn_error]
   past [deadline]. *)
let run conns ~deadline ~tick ~fin =
  let rec loop () =
    if not (fin ()) then begin
      let t = now () in
      if t > deadline then raise (Conn_error "timed out waiting for replies");
      let wake = tick t in
      pump conns ~timeout:(Float.min 0.05 (wake -. now ()));
      loop ()
    end
  in
  loop ()

(* Blocking round trip, for set-up and checks. *)
let call c line =
  let r = ref None in
  send c line (fun _ reply -> r := Some reply);
  run [ c ] ~deadline:(now () +. 60.) ~tick:(fun t -> t +. 0.05) ~fin:(fun () -> !r <> None);
  Option.get !r

(* Integer value of [key=] in a status line. *)
let field line key =
  let k = key ^ "=" in
  let kl = String.length k in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = k && (i = 0 || line.[i - 1] = ' ') then begin
      let j = ref (i + kl) in
      while !j < String.length line && line.[!j] <> ' ' do incr j done;
      int_of_string_opt (String.sub line (i + kl) (!j - i - kl))
    end
    else find (i + 1)
  in
  find 0

let status_field line key =
  match field line key with
  | Some v -> v
  | None -> raise (Conn_error (Printf.sprintf "status reply without %s=: %S" key line))

(* {1 Child processes} *)

type proc = {
  pname : string;
  pid : int;
  out : string;  (* its stdout and stderr *)
  mutable stdin : Unix.file_descr option;
  mutable alive : bool;
}

let children : proc list ref = ref []

(* Servers run at a lower priority than the generator: with every core
   busy computing, a waking generator would otherwise wait a scheduler
   slice to send, and its lateness would be charged to the server. *)
let nice =
  lazy
    (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:"")
    |> List.map (fun d -> Filename.concat d "nice")
    |> List.find_opt Sys.file_exists)

let spawn ~exe ~args ~out ~name =
  let r, w = Unix.pipe ~cloexec:true () in
  let o = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let argv =
    match Lazy.force nice with Some n -> n :: "-n" :: "10" :: exe :: args | None -> exe :: args
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) r o o in
  Unix.close r;
  Unix.close o;
  let p = { pname = name; pid; out; stdin = Some w; alive = true } in
  children := p :: !children;
  p

let output p = try In_channel.with_open_bin p.out In_channel.input_all with Sys_error _ -> ""

let reap p =
  if p.alive then
    match Unix.waitpid [ WNOHANG ] p.pid with
    | 0, _ -> ()
    | _ -> p.alive <- false
    | exception Unix.Unix_error (ECHILD, _, _) -> p.alive <- false

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1)
  in
  go 0

(* The port a child printed as "... on 127.0.0.1:PORT". *)
let wait_port p =
  let deadline = now () +. 120. in
  let key = " on 127.0.0.1:" in
  let rec poll () =
    let text = output p in
    let found =
      List.find_map
        (fun l ->
          match find_sub l key with
          | Some i ->
              let at = i + String.length key in
              let s = String.sub l at (String.length l - at) in
              let j = ref 0 in
              while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
              int_of_string_opt (String.sub s 0 !j)
          | None -> None)
        (String.split_on_char '\n' text)
    in
    match found with
    | Some port -> port
    | None ->
        reap p;
        if not p.alive then
          raise (Conn_error (Printf.sprintf "%s exited before listening:\n%s" p.pname text));
        if now () > deadline then raise (Conn_error (p.pname ^ ": no listening port in time"));
        Unix.sleepf 0.0005;
        poll ()
  in
  poll ()

(* Ask a child to stop ([close stdin] for a leader, SIGTERM for a
   replica) and wait for it; SIGKILL after a minute. *)
let stop ?(signal = false) p =
  (match p.stdin with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      p.stdin <- None
  | None -> ());
  if signal && p.alive then (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 60. in
  while p.alive && now () < deadline do
    reap p;
    if p.alive then Unix.sleepf 0.002
  done;
  if p.alive then begin
    (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.alive <- false;
    raise (Conn_error (p.pname ^ " did not stop in time; killed"))
  end

let kill_all () =
  List.iter
    (fun p ->
      if p.alive then begin
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
        p.alive <- false
      end)
    !children

let () = at_exit kill_all

(* {1 /proc} *)

let proc_file pid name =
  try In_channel.with_open_bin (Printf.sprintf "/proc/%d/%s" pid name) In_channel.input_all
  with Sys_error _ -> ""

(* Peak resident set (VmHWM) in MB. *)
let rss_hwm_mb p =
  let kb =
    List.find_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          try Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" Option.some
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> None
        else None)
      (String.split_on_char '\n' (proc_file p.pid "status"))
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> Float.nan

(* User + system CPU seconds so far (clock ticks are 1/100 s on Linux). *)
let cpu_s p =
  let s = proc_file p.pid "stat" in
  match String.rindex_opt s ')' with
  | None -> Float.nan
  | Some i -> (
      let fields =
        String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
      in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some k -> float_of_int (int_of_string u + int_of_string k) /. 100.
      | _ -> Float.nan)
