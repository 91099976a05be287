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

type conn = { fd : Unix.file_descr; dom : unit Domain.t }

type server = {
  listener : Unix.file_descr;
  bound_port : int;
  refuse : bool Atomic.t;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  mutable conns : conn list;
  mutable accept_dom : unit Domain.t option;
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
              accept_dom = None;
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

(* Handler domains unregister themselves so [conns] stays the live
   set; [stop] joins whatever remains after severing the sockets. *)
let serve t handler =
  let run_conn c () =
    Fun.protect
      ~finally:(fun () ->
        close_quiet c;
        conn_delta (-1);
        Mutex.lock t.mu;
        t.conns <- List.filter (fun x -> x.fd != c) t.conns;
        Mutex.unlock t.mu)
      (fun () -> try handler c with _ when Atomic.get t.stopping -> ())
  in
  let rec accept_loop () =
    match Unix.accept t.listener with
    | fd, _ ->
        if Atomic.get t.stopping then close_quiet fd
        else if Atomic.get t.refuse then begin
          Obs.incr c_refused;
          close_quiet fd
        end
        else begin
          conn_delta 1;
          (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
          (* registered under the lock so the handler's unregistering
             [finally] cannot run first; at the domain limit the spawn
             fails: release the lock, refuse this connection and keep
             accepting *)
          Mutex.lock t.mu;
          match Domain.spawn (run_conn fd) with
          | dom ->
              t.conns <- { fd; dom } :: t.conns;
              Mutex.unlock t.mu;
              Obs.incr c_accepts
          | exception Failure _ ->
              Mutex.unlock t.mu;
              Obs.incr c_refused;
              conn_delta (-1);
              close_quiet fd
        end;
        accept_loop ()
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (_, _, _) ->
        if not (Atomic.get t.stopping) then accept_loop ()
  in
  t.accept_dom <- Some (Domain.spawn accept_loop)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    shutdown_quiet t.listener;
    close_quiet t.listener;
    (match t.accept_dom with Some d -> Domain.join d | None -> ());
    let rec drain () =
      Mutex.lock t.mu;
      let conns = t.conns in
      Mutex.unlock t.mu;
      match conns with
      | [] -> ()
      | cs ->
          List.iter (fun c -> shutdown_quiet c.fd) cs;
          List.iter (fun c -> try Domain.join c.dom with _ -> ()) cs;
          drain ()
    in
    drain ()
  end

let connect ~host ~port ~timeout_s =
  match resolve host port with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      let fail fmt =
        Printf.ksprintf
          (fun m ->
            close_quiet fd;
            Error m)
          fmt
      in
      Unix.set_nonblock fd;
      match Unix.connect fd addr with
      | () ->
          Unix.clear_nonblock fd;
          (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
          Ok fd
      | exception Unix.Unix_error (EINPROGRESS, _, _) -> (
          match Unix.select [] [ fd ] [] timeout_s with
          | _, [ _ ], _ -> (
              match Unix.getsockopt_error fd with
              | None ->
                  Unix.clear_nonblock fd;
                  (try Unix.setsockopt fd TCP_NODELAY true
                   with Unix.Unix_error _ -> ());
                  Ok fd
              | Some e ->
                  fail "connect %s:%d: %s" host port (Unix.error_message e))
          | _ -> fail "connect %s:%d: timed out after %.1fs" host port timeout_s
          | exception Unix.Unix_error (e, _, _) ->
              fail "connect %s:%d: %s" host port (Unix.error_message e))
      | exception Unix.Unix_error (e, _, _) ->
          fail "connect %s:%d: %s" host port (Unix.error_message e))
