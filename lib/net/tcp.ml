open Rs_obs

let c_accepts = Obs.counter "net/accepts"
let c_refused = Obs.counter "net/refused"
let g_connections = Obs.gauge "net/connections"
let live = Atomic.make 0

let conn_delta d =
  Obs.set_gauge g_connections (float_of_int (Atomic.fetch_and_add live d + d))

let parse_hostport s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %s" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      let port_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port_s with
      | None -> Error (Printf.sprintf "port is not an integer: %s" port_s)
      | Some p when p < 0 || p > 65535 ->
          Error (Printf.sprintf "port out of range: %d" p)
      | Some p -> Ok (host, p))

let resolve host port =
  try Ok (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with Failure _ -> (
    match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE SOCK_STREAM ] with
    | { ai_addr; _ } :: _ -> Ok ai_addr
    | [] | (exception _) -> Error (Printf.sprintf "cannot resolve host %s" host))

type conn = { fd : Unix.file_descr; th : Thread.t }

type server = {
  listener : Unix.file_descr;
  bound_port : int;
  refuse : bool Atomic.t;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  mutable conns : conn list;
  mutable accept_th : Thread.t option;
}

let listen ~host ~port =
  match resolve host port with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      match Unix.bind fd addr with
      | () ->
          Unix.listen fd 64;
          let bound_port =
            match Unix.getsockname fd with
            | ADDR_INET (_, p) -> p
            | ADDR_UNIX _ -> port
          in
          Ok
            {
              listener = fd;
              bound_port;
              refuse = Atomic.make false;
              stopping = Atomic.make false;
              mu = Mutex.create ();
              conns = [];
              accept_th = None;
            }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot bind %s:%d: %s" host port
               (Unix.error_message e)))

let port t = t.bound_port
let set_refuse t v = Atomic.set t.refuse v

let connections t =
  Mutex.lock t.mu;
  let n = List.length t.conns in
  Mutex.unlock t.mu;
  n

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shutdown_quiet fd =
  try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let drop_connections t =
  Mutex.lock t.mu;
  let dropped = t.conns in
  Mutex.unlock t.mu;
  List.iter (fun c -> shutdown_quiet c.fd) dropped;
  List.length dropped

let open_reserve () =
  try Some (Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0)
  with Unix.Unix_error _ -> None

(* Handler threads unregister themselves so [conns] stays the live
   set; [stop] joins whatever remains after severing the sockets. *)
let serve t handler =
  let run_conn c =
    Fun.protect
      ~finally:(fun () ->
        close_quiet c;
        conn_delta (-1);
        Mutex.lock t.mu;
        t.conns <- List.filter (fun x -> x.fd != c) t.conns;
        Mutex.unlock t.mu)
      (fun () -> try handler c with _ when Atomic.get t.stopping -> ())
  in
  let refuse fd =
    Obs.incr c_refused;
    close_quiet fd
  in
  let admit fd =
    if Atomic.get t.stopping then close_quiet fd
    else if Atomic.get t.refuse then refuse fd
    else begin
      conn_delta 1;
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      (* registered under the lock so the handler's unregistering
         [finally] cannot run first; a thread that cannot be created
         (a pids limit) must not leave the lock held *)
      Mutex.lock t.mu;
      match Thread.create run_conn fd with
      | th ->
          t.conns <- { fd; th } :: t.conns;
          Mutex.unlock t.mu;
          Obs.incr c_accepts
      | exception Sys_error _ ->
          Mutex.unlock t.mu;
          conn_delta (-1);
          refuse fd
    end
  in
  (* At a full fd table [accept] fails at once and leaves the
     connection pending, so retrying it would spin. Instead wait for
     the next connection in the slot of a descriptor held in reserve;
     if the reserve cannot be retaken the table is still full, so
     refuse that connection, else admit it. With no reserve to free,
     back off. *)
  let reserve = ref (open_reserve ()) in
  let shed () =
    match !reserve with
    | None ->
        Unix.sleepf 0.01;
        reserve := open_reserve ();
        None
    | Some r -> (
        close_quiet r;
        let got =
          match Unix.accept t.listener with
          | fd, _ -> Some fd
          | exception Unix.Unix_error _ -> None
        in
        reserve := open_reserve ();
        match (got, !reserve) with
        | Some fd, None ->
            refuse fd;
            reserve := open_reserve ();
            None
        | got, _ -> got)
  in
  let rec accept_loop () =
    match Unix.accept t.listener with
    | fd, _ ->
        admit fd;
        accept_loop ()
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (_, _, _) when Atomic.get t.stopping -> ()
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) ->
        Option.iter admit (shed ());
        accept_loop ()
    | exception Unix.Unix_error (_, _, _) -> accept_loop ()
  in
  let run_accept () =
    Fun.protect ~finally:(fun () -> Option.iter close_quiet !reserve) accept_loop
  in
  t.accept_th <- Some (Thread.create run_accept ())

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    shutdown_quiet t.listener;
    close_quiet t.listener;
    Option.iter Thread.join t.accept_th;
    let rec drain () =
      Mutex.lock t.mu;
      let conns = t.conns in
      Mutex.unlock t.mu;
      match conns with
      | [] -> ()
      | cs ->
          List.iter (fun c -> shutdown_quiet c.fd) cs;
          List.iter (fun c -> Thread.join c.th) cs;
          drain ()
    in
    drain ()
  end

(* A blocking connect bounded by [SO_SNDTIMEO], which Linux applies to
   connect as to writes ([EINPROGRESS] when it expires). No [select]:
   it rejects descriptors numbered 1024 and up. *)
let connect ~host ~port ~timeout_s =
  match resolve host port with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match
        Unix.setsockopt_float fd SO_SNDTIMEO (Float.max 0.001 timeout_s);
        Unix.connect fd addr
      with
      | () ->
          (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
          Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          close_quiet fd;
          Error
            (match e with
            | EINPROGRESS | EAGAIN | EWOULDBLOCK | ETIMEDOUT ->
                Printf.sprintf "connect %s:%d: timed out after %.1fs" host port timeout_s
            | e -> Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e)))
