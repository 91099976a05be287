(** TCP plumbing for [Rs_net]: a domain-per-connection listener and a
    deadline-bounded connector.

    The server accepts on its own domain and runs each connection's
    handler on a fresh domain; handlers speak {!Frame} with deadlines,
    so closing a connection's descriptor (from {!stop} or
    {!drop_connections}) unblocks them promptly. Two knobs exist for
    the chaos harness: {!set_refuse} makes the listener close new
    connections on arrival, and {!drop_connections} severs the live
    ones — together they simulate a network partition without a proxy
    process. *)

val parse_hostport : string -> (string * int, string) result
(** ["HOST:PORT"] → [(host, port)]. The last [':'] splits, so bare
    numeric forms work; empty host means ["127.0.0.1"]. Errors are
    one-line diagnostics suitable for CLI misuse output. *)

type server

val listen :
  host:string -> port:int -> (server, string) result
(** Bind and listen (SO_REUSEADDR). [port = 0] picks an ephemeral
    port; read it back with {!port}. No domain is spawned yet. *)

val port : server -> int
(** The actually-bound port. *)

val serve : server -> (Unix.file_descr -> unit) -> unit
(** Start the accept loop on a new domain. Each accepted connection
    runs [handler fd] on its own domain; the fd is closed when the
    handler returns or raises. When no handler domain can be spawned
    (OCaml's domain limit) the connection is closed and counted in
    [net/refused], and the loop keeps accepting. Records
    [net/accepts] and gauges [net/connections]. *)

val set_refuse : server -> bool -> unit
(** While set, accepted connections are closed immediately — new
    clients see a reset, as across a partition. *)

val drop_connections : server -> int
(** Shut down every live connection's socket (handlers unblock with
    [Closed]); returns how many were severed. *)

val connections : server -> int
(** Live connection count. *)

val stop : server -> unit
(** Close the listener, sever live connections, join every domain.
    Idempotent. *)

val connect :
  host:string -> port:int -> timeout_s:float -> (Unix.file_descr, string) result
(** One connection attempt with a bounded wait (non-blocking connect +
    [select]); [TCP_NODELAY] set. The caller owns the descriptor. *)
