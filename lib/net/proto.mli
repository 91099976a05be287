(** The serve line protocol as a pure command evaluator.

    [rspan serve] historically parsed its stdin commands inline; the
    TCP transport needs the same grammar and byte-identical replies, so
    the evaluator lives here and both paths call it. One request line
    in, one reply (possibly multi-line) out — transport-agnostic, so a
    reply travels equally well to stdout or inside a {!Frame}. *)

type outcome =
  | Reply of string  (** reply text, no trailing newline *)
  | Silent  (** blank line or comment: nothing to say *)
  | Quit  (** the peer asked to end the session *)

type env = {
  service : Rs_serve.Service.t;
  on_delta : Rs_dynamic.Delta.t -> (unit, string) result;
      (** how a [delta] line is admitted — the leader offers it to the
          service; a replica rejects it with a read-only reason *)
  stopped : unit -> bool;  (** external shutdown, checked while draining *)
}

val leader_env : Rs_serve.Service.t -> env
(** The standard writable environment: deltas are offered to the
    service, never externally stopped. *)

val exec : env -> string -> outcome
(** Evaluate one request line: [status], [stats], [route A B],
    [paths A B K], [advert U], [delta …], [drain], [sleep S], [quit],
    comments. Unknown commands and malformed integers come back as
    [Reply "error: …"] — the connection stays up. *)
