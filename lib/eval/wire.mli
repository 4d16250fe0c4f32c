(** The [hlts serve] wire protocol: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of compact JSON ({!Hlts_obs.Json.to_string}). The prefix makes
    message boundaries explicit on a stream socket, so one [read] can
    deliver several frames (the async pipelining case) or a fraction of
    one; {!decoder} reassembles either way. *)

type addr =
  | Unix_path of string  (** a Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val parse_tcp : string -> (addr, string) result
(** ["HOST:PORT"] -> [Tcp (host, port)]. *)

val addr_to_string : addr -> string

val sockaddr : addr -> Unix.sockaddr
(** Resolves [Tcp] hosts by literal IP first, then name lookup.
    @raise Failure if the host does not resolve. *)

val max_frame : int
(** Frames larger than this (64 MiB) are protocol errors, not
    allocations: a garbage prefix must not OOM the daemon. *)

val schema_version : int
(** Protocol schema version, reported by the daemon in [ping]/[stats]
    replies so clients can detect skew. Bumped only on incompatible
    frame-shape changes; additive envelope fields (e.g. ["trace"]) do
    not bump it. *)

val write_frame : Unix.file_descr -> Hlts_obs.Json.t -> unit
(** Writes one complete frame, prefix and payload from one buffer in
    one [write] call (retried on a short write).
    @raise Unix.Unix_error on a closed/broken peer. *)

val write_frame' : Unix.file_descr -> Hlts_obs.Json.t -> int
(** Like {!write_frame} but returns the bytes written (prefix +
    payload) — the access log records reply sizes. *)

val read_frame : Unix.file_descr -> Hlts_obs.Json.t option
(** Blocking read of one frame; [None] on clean EOF before the first
    prefix byte.
    @raise Failure on a truncated frame, oversize prefix or malformed
    JSON. *)

(** {1 Incremental decoding} (the daemon side)

    The daemon reads sockets non-blockingly and feeds whatever bytes
    arrive; [next] yields each completed frame in order. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** Appends the first [n] bytes of the buffer. *)

val next : decoder -> [ `Frame of Hlts_obs.Json.t | `Awaiting | `Error of string ]
(** [`Awaiting]: no complete frame buffered yet. [`Error] is
    unrecoverable (oversize or malformed frame) — drop the
    connection. *)
