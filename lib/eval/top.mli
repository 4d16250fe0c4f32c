(** Terminal dashboard over a heartbeat file.

    [hlts synth --heartbeat hb.jsonl] appends one JSON snapshot line at
    a fixed cadence (see {!Hlts_obs.heartbeat_sink}); this module tails
    such a file — possibly while the producer is still writing it — and
    renders resident set, CPU, GC pressure, pool utilization and
    counter rates as a fixed text panel.

    Robustness contract (shared with [hlts report]): a missing or
    unreadable file is a clean [Error], never an exception; a torn
    trailing line or an unparseable line is counted as skipped and
    otherwise ignored, because tailing a live file *will* observe
    partial writes. *)

(** One heartbeat snapshot. *)
type hb = {
  hb_seq : int;                        (** 0-based snapshot sequence *)
  hb_t_s : float;                      (** seconds since the run started *)
  hb_final : bool;                     (** last snapshot of the run *)
  hb_res : (string * float) list;
      (** process resources, ["res."] prefix stripped ([rss_kb],
          [gc.minor_words], ...) *)
  hb_counters : (string * int) list;
  hb_gauges : (string * float) list;
}

val parse_line : string -> (hb, string) result
(** Parse one snapshot line. *)

val read_lines : string -> (string list * int, string) result
(** [read_lines f] is every complete (newline-terminated) line of [f],
    in file order, without its newline, plus the number of torn
    trailing fragments (0 or 1) — a last line without a newline is a
    write still in progress. [Error] only when the file cannot be
    opened. The file readers here and [Report.read_file] share it. *)

val read_file : string -> (hb list * int, string) result
(** [read_file f] is every complete snapshot currently in [f], in file
    order, plus the number of skipped lines (torn trailing fragment,
    unparseable lines). [Error] only when the file cannot be opened. *)

val render : ?prev:hb -> file:string -> skipped:int -> hb -> string
(** Render one snapshot as a multi-line text panel; [prev] is the
    baseline snapshot for rate columns (defaults to rates since
    t=0). *)

val once : file:string -> (string, string) result
(** Render the newest snapshot of [file] (rates measured against the
    oldest), or an error line for a missing/empty file. *)

val follow :
  ?frames:int -> ?interval_ms:int -> file:string -> (string -> unit) ->
  (unit, string) result
(** [follow ~file write] re-reads [file] every [interval_ms] (default
    250) and passes a clear-screen escape plus the rendered panel to
    [write], rate-basing each frame on the previous one. Returns [Ok]
    after rendering a snapshot flagged final, or after [frames] frames
    when [frames > 0]. An existing-but-empty file is polled (bounded),
    so starting concurrently with the producer is safe; a missing file
    is an immediate [Error]. *)

(** {1 Serve mode} ([hlts top --serve])

    The same dashboard idea over a [serve --access-log] file: requests
    per second, latency percentiles, cache hit rate, inferred queue
    depth and busy rejects. Same tolerance contract as heartbeat
    mode. *)

(** One request record of an access log. *)
type access = {
  ac_t_s : float;        (** seconds since daemon start *)
  ac_trace : string;     (** trace id, or ["-"] when untraced *)
  ac_op : string;
  ac_digest : string;
  ac_verdict : string;   (** [hit]/[miss]/[accepted]/[busy]/[ok]/[error] *)
  ac_async : bool;       (** a queued job's execution record *)
  ac_bytes_out : int;
  ac_queue_s : float;
  ac_cache_s : float;
  ac_compute_s : float;
  ac_reply_s : float;
  ac_total_s : float;
}

(** A parsed access-log line: a request record or a daemon lifecycle
    marker ([listening]/[drained]). *)
type access_line =
  | Request of access
  | Lifecycle of { lc_event : string; lc_final : bool }

val parse_access_line : string -> (access_line, string) result

val percentile : float array -> float -> float
(** [percentile sorted q] is the [q]-quantile ([0..1]) of an
    ascending-sorted array by the nearest-rank method; [0.] when
    empty. Shared with [hlts report --serve]. *)

val read_access_file : string -> (access list * bool * int, string) result
(** [read_access_file f] is every complete request record currently in
    [f] in file order, whether a final lifecycle line ([drained]) was
    seen, and the skipped-line count (torn trailing fragment,
    unparseable lines). [Error] only when the file cannot be opened. *)

val render_serve :
  file:string -> skipped:int -> final:bool -> access list -> string
(** Render the service panel over all records so far. *)

val once_serve : file:string -> (string, string) result
(** Render the access log once, or an error for a missing/empty
    file. *)

val follow_serve :
  ?frames:int -> ?interval_ms:int -> file:string -> (string -> unit) ->
  (unit, string) result
(** Like {!follow}, over an access log: stops after rendering a panel
    that saw the final [drained] line, or after [frames] frames. *)
