(** Length-prefixed, CRC-framed messages over a file descriptor — the
    wire unit of every [Rs_net] connection.

    One frame on the wire:

    {v
    u32  payload length   (little-endian, < 64 MiB)
    u32  CRC-32 over the payload
    ...  payload
    v}

    The checksum means a torn or bit-flipped frame is detected at the
    receiver instead of being parsed as garbage — the same contract the
    store's WAL records and snapshots already honor on disk, applied to
    the network. Payloads are opaque here; {!Repl} and the query
    protocol tag them with a leading byte.

    All reads and writes run against {e deadlines}: {!recv} and
    {!send} take an absolute number of seconds of patience and return
    [Error Timeout] instead of blocking a thread forever on a dead or
    glacial peer (implemented with [SO_RCVTIMEO]/[SO_SNDTIMEO], set
    per call). A peer that closes between frames yields
    [Error Closed]; anything structurally wrong — including a close or
    a passed deadline after part of a frame was read — yields
    [Error (Corrupt reason)]. None of the entry points raise on I/O
    failure.

    Linking this module ignores [SIGPIPE] process-wide: a write to a
    socket the peer already severed must come back as [Error Closed],
    and the default signal disposition would kill the process before
    [EPIPE] could be observed. *)

type error =
  | Timeout
      (** the deadline passed before a full frame was written, or
          before the first byte of one was read *)
  | Closed  (** the peer closed (EOF or reset) *)
  | Corrupt of string  (** bad length, checksum mismatch *)

val error_to_string : error -> string

val max_payload : int
(** 64 MiB — a frame announcing more is [Corrupt], not an allocation. *)

val send : Unix.file_descr -> timeout_s:float -> string -> (unit, error) result
(** Write one frame, honoring the deadline across partial writes.
    Records [net/frames_out] and [net/bytes_out]. *)

val recv : ?idle:bool -> Unix.file_descr -> timeout_s:float -> (string, error) result
(** Read one frame, verify its checksum, return the payload. A clean
    EOF {e between} frames is [Error Closed] and a deadline that passes
    there is [Error Timeout]; an EOF or a deadline {e inside} one is
    [Error (Corrupt _)], since the stream is no longer at a frame
    boundary. [~idle:true] (default [false]) waits for the frame's
    first byte with no deadline, until data, a close or a [shutdown]
    of the socket; [timeout_s] holds from that byte on. Records
    [net/frames_in] and [net/bytes_in]. *)
