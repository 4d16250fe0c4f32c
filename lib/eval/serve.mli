(** The [hlts serve] daemon: a single-threaded request loop over the
    {!Engine}, answering synthesis/ATPG work from the content-addressed
    {!Cache}.

    Listens on a Unix-domain socket (default [<cache dir>/serve.sock])
    or TCP. Frames are {!Wire} frames; each carries one JSON envelope:

    - [{"op":"ping"}] -> [{"ok":true,"op":"pong"}]
    - [{"op":"stats"}] -> queue depth, serve counters, cache stats
    - [{"op":"shutdown"}] -> acknowledges, drains, exits
    - [{"op":"synth"|"testability"|"atpg"|"sweep", ...}] (the
      {!Engine.request_of_json} shape) plus two envelope fields:
      [{"wait":false}] queues the work and replies
      [{"ok":true,"accepted":true,"digest":d}] immediately — resubmit
      with [wait:true] later to collect the cached result —
      and [{"journal":true}] includes the decision journal in the
      reply (its digest is always included).

    Synchronous work executes inline (the loop is single-threaded;
    parallelism comes from the engine's worker pool), so concurrent
    clients are serialized but never starved: all complete frames are
    decoded before work starts. Asynchronous work goes on a bounded
    queue; when full the daemon replies
    [{"ok":false,"busy":true,"error":...}] instead of queueing —
    backpressure, not buffering.

    SIGTERM/SIGINT start a graceful drain: the listener closes, queued
    and already-received work completes (replies included), then the
    daemon exits and removes its socket file.

    {2 Request tracing and SLOs}

    An engine-op envelope may carry a ["trace"] field
    ({!Hlts_obs.Trace_ctx.of_envelope}); when present and sampled, the
    request executes under a collector sink and the reply's ["trace"]
    object echoes the ids plus every span the request produced — the
    daemon's own work on lane 1, pool workers on lanes 2+w. Frames
    without the field behave exactly as before. [ping]/[stats] replies
    carry [version], [schema] ({!Wire.schema_version}), [uptime_s] and
    cumulative request counts.

    Per request the daemon records phase walls — queue (async dequeue
    delay), cache (result-tier probe), compute, reply (frame write) —
    into an access log (one JSON line per frame, plus one async-flagged
    line per executed queued job and listening/drained lifecycle lines)
    and, under [--metrics], into fixed-bucket latency histograms named
    [serve.request.<op>.<verdict>.seconds] / [serve.phase.*_seconds].
    A ring of the [slow_k] slowest requests (journals included) is
    summarized in [stats] replies and dumped in full to [log] on
    SIGUSR1. None of this telemetry enters any determinism contract:
    digests and journals are byte-identical with tracing on or off. *)

type config = {
  addr : Wire.addr;
  cache : Cache.t;
  jobs : int option;
  backend : unit option;
      (** ignored: kept so existing config literals still build; the
          pool has a single transport *)
  queue_limit : int;  (** async jobs held before busy-rejecting *)
  log : string -> unit;  (** one line per lifecycle event *)
  access_log : (string -> unit) option;
      (** writes one complete access-log line (newline included) per
          call; each line is a single call so tailing readers never see
          a torn record *)
  metrics : string option;
      (** Prometheus snapshot path, rewritten on every [stats] request
          and on exit; also enables the daemon-lifetime summary sink *)
  slow_k : int;  (** slowest-request ring size *)
}

val version : string
(** Daemon release version, as reported in [ping]/[stats] replies. *)

val default_socket_path : string -> string
(** [default_socket_path cache_dir] is [cache_dir ^ "/serve.sock"] —
    at the cache-dir top level, outside every entry kind directory. *)

val run : config -> unit
(** Binds, serves until [shutdown] or SIGTERM, then drains and returns.
    Replaces a stale socket file (bind target exists but nothing
    accepts); fails if a live daemon already listens there.
    @raise Unix.Unix_error on bind/listen failure. *)
