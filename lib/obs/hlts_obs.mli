(** Observability substrate for the synthesis pipeline: hierarchical
    timed spans, named counters/gauges/histograms and pluggable sinks.

    The library is *passive by default*: with no sink installed every
    entry point degenerates to a single list-emptiness check, no clock
    is read and no allocation happens, so instrumented hot paths cost
    nothing and synthesis results are byte-identical with and without
    instrumentation. Event *content* (names, categories, argument
    values, ordering) is deterministic for a fixed seed; only the
    timestamp fields vary between runs, so traces diff cleanly.

    The sinks that ship with the library:

    - {!Summary} — in-memory aggregation (per-span totals and self
      time, counter sums, sample statistics) with a per-phase
      wall-clock breakdown whose phase times sum to the total; the
      Prometheus exposition ({!Metrics}) renders it;
    - {!journal_sink} — the one JSONL event stream: one JSON object
      per event, decisions as deterministic journal lines;
    - {!heartbeat_sink} — periodic progress snapshots for [hlts top];
    - {!chrome_sink} — Chrome [trace_event] format, loadable in
      [chrome://tracing] and Perfetto, drawn by the one renderer
      behind {!Trace_ctx.chrome_trace}. *)

(** Monotonic wall clock. Every [seconds] field reported anywhere in
    the system (ATPG, BIST, bench [elapsed], profile breakdowns) is
    derived from this one clock, so times are comparable across
    subsystems and immune to wall-clock adjustments. *)
module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic timestamp in nanoseconds. Only differences are
      meaningful. *)

  val seconds_since : int64 -> float
  (** [seconds_since t0] is the elapsed wall time since the
      {!now_ns} reading [t0], in seconds. *)
end

(** Minimal JSON tree: emission (used by the sinks), parsing, and the
    one set of typed field readers every decoder uses. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering: no whitespace, fields and items in the order
      given. The bytes are a contract — request, response and journal
      digests are MD5 over them, and cached answers are compared by
      them — so they never change for the same tree:
      - an [Int] is its decimal [string_of_int];
      - a finite [Float] is the first of [%.12g], [%.15g] and [%.17g]
        that reads back as the same float (so [1.0] renders [1], and
        [-0.0] renders [-0]); NaN and infinities render [null];
      - in a string, a double quote and a backslash get a backslash
        before them; newline, carriage return and tab become the
        two-byte escapes [\\n], [\\r] and [\\t]; every other byte
        below 0x20 becomes [\\u00XX] with lowercase hex; every other
        byte (0x7f and non-ASCII included) is copied as is. *)

  val of_string : string -> (t, string) result
  (** Strict parser for the subset {!to_string} emits (which is plain
      JSON); rejects trailing garbage. An error is
      ["<what> at <byte offset>"] (["trailing garbage at <offset>"]
      for bytes after the value). A number with [.], [e] or [E] is a
      [Float], any other an [Int]; one that does not fit is an
      error. *)

  val of_substring : string -> int -> int -> (t, string) result
  (** [of_substring s off len] parses [s.[off .. off + len - 1]]
      exactly as {!of_string} parses that substring, error offsets
      included, without copying it first.
      @raise Invalid_argument if the range is not inside [s]. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)

  (** Converters for {!field}: [Some] value when the node has the
      type, [None] otherwise. [number] takes [Int] too, because
      {!to_string} renders integral floats without a fraction. *)

  val int : t -> int option
  val number : t -> float option
  val string : t -> string option
  val bool : t -> bool option

  val field : string -> (t -> 'a option) -> t -> ('a, string) result
  (** [field name conv j] is member [name] of [j] through [conv];
      [Error] names the field when it is missing or of the wrong type.
      The message is built only on the error branch. *)

  val field_default :
    string -> (t -> 'a option) -> default:'a -> t -> ('a, string) result
  (** Like {!field} for an optional member: [Ok default] when it is
      absent, [Error] when it is present with the wrong type. *)
end

(** Typed decision journal: the *what* and *why* of an Algorithm-1 run,
    as opposed to the *how long* the spans record. Events are emitted by
    {!Hlts_synth.Synth} (iteration boundaries, candidate verdicts,
    commits), {!Hlts_synth.Merge} (SR1/SR2 rescheduling) and replayed
    across the worker-pool boundary exactly like counters, so the
    journal is byte-identical at every [-j N].

    Only plain data here — journal events are marshalled into the disk
    cache — and no timestamps: a journal event is deterministic content
    by construction; the {!journal_sink} stamps a sequence number, never
    a clock reading. *)
module Journal : sig
  (** A candidate merge pair: two functional-unit ids or two register
      ids (mirrors [Candidates.pair], which lives above this library). *)
  type pair =
    | Units of int * int
    | Registers of int * int

  (** Which enhancement strategy resolved the merge-sort rescheduling:
      [SR2] when a head-to-head order was decided by the occupancy
      metric (the order that lets SR1 reduce sequential depth), [SR1]
      when only forced orders and the critical-path fallback applied. *)
  type strategy =
    | SR1
    | SR2

  (** Why a candidate was not committed. [Infeasible]: the merger has no
      acyclic rescheduling. [Over_budget]: feasible, but the schedule
      exceeds the latency budget. [Not_improving]: within budget, but
      [alpha*dE + beta*dH >= 0] under [Cost_improving]. [Not_selected]:
      acceptable, but a cheaper candidate won the iteration. *)
  type reject =
    | Infeasible
    | Over_budget
    | Not_improving
    | Not_selected

  type event =
    | Iter_begin of { iteration : int; pool : int }
        (** [pool] = size of the score-ordered candidate list. *)
    | Candidate_scored of {
        pair : pair;
        delta_e : int;       (** control steps *)
        delta_h : float;     (** mm2 *)
        sched_len : int;     (** post-merge schedule length *)
      }
    | Candidate_rejected of { pair : pair; reason : reject }
    | Merge_committed of {
        description : string;
        reason : string;     (** e.g. "cheapest acceptable of top-3 (rank 2)" *)
        delta_e : int;
        delta_h : float;
        cost : float;
      }
    | Reschedule of {
        strategy : strategy;
        moved_ops : (int * int * int) list;
            (** [(op, old step, new step)] for every op the merger's
                constraints moved, ascending by op id. *)
      }
    | Testability_snapshot of {
        seq_depth : float;
        registers : int;
        units : int;
        sched_len : int;
        area_mm2 : float;
      }  (** design-quality snapshot after each committed merger *)

  val encode : event -> Json.t
  (** Canonical JSON object: an ["ev"] kind tag plus the payload fields.
      Field values are deterministic (floats render shortest-round-trip),
      so byte-comparing encodings compares events exactly. *)

  val decode : Json.t -> (event, string) result
  (** Inverse of {!encode} (ignores an extra ["j"] sequence field). *)

  val is_decision_line : string -> bool
  (** True for decision lines (as written by {!journal_sink} — they
      start with [{"j":]); false for the interleaved timing lines.
      The determinism contract covers exactly the lines this accepts. *)
end

(** Argument values attached to spans and instant events. *)
type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

(** One completed span as captured inside a pool worker, shipped back
    with the reply and re-stamped into the parent's sinks as a
    {!Worker_span}. Timestamps are {!Clock} readings — the monotonic
    clock is system-wide, so worker and parent timestamps share one
    timeline and need no translation. *)
type span_rec = {
  w_name : string;
  w_cat : string;
  w_ts_ns : int64;   (** end timestamp, as [Span_end] *)
  w_dur_ns : int64;
  w_depth : int;
  w_args : (string * value) list;
}

(** The event stream delivered to sinks. Timestamps are {!Clock}
    readings; [depth] is the span-nesting depth (0 = root). *)
type event =
  | Span_begin of { name : string; cat : string; ts_ns : int64; depth : int }
  | Span_end of {
      name : string;
      cat : string;
      ts_ns : int64;
      dur_ns : int64;
      depth : int;
      args : (string * value) list;
    }
  | Count of { name : string; delta : int; ts_ns : int64 }
  | Gauge of { name : string; v : float; ts_ns : int64 }
  | Sample of { name : string; v : float; ts_ns : int64 }
  | Instant of {
      name : string;
      cat : string;
      args : (string * value) list;
      ts_ns : int64;
    }
  | Decision of { d : Journal.event; ts_ns : int64 }
      (** A decision-journal event (see {!Journal}). [ts_ns] is when the
          emitting process recorded it; journal lines leave it out. *)
  | Worker_span of { worker : int; ticket : int; span : span_rec }
      (** A span completed inside pool worker [worker] while serving
          [ticket], re-stamped into the parent's sinks by the pool
          pump. *)

type sink = {
  emit : event -> unit;
  flush : unit -> unit;  (** complete any buffered output; idempotent *)
}

val enabled : unit -> bool
(** [true] iff at least one sink is installed. *)

val add_sink : sink -> unit

val remove_sink : sink -> unit
(** Removes a previously added sink (by physical equality). *)

val clear_sinks : unit -> unit

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f], then flushes and removes
    [s] — exception-safe. *)

val in_fresh_context : sink list -> (unit -> 'a) -> 'a
(** [in_fresh_context ss f] runs [f] with the caller's sinks replaced
    by [ss] and the span depth restarted at zero — the observability
    environment a freshly spawned worker domain sees — restoring both
    on the way out, exception or not. Lets a pool execute tasks inline
    on the caller's domain with worker-identical capture semantics. *)

type span
(** A live span handle, used to attach arguments. When no sink is
    installed a shared dummy handle is passed and {!set} is a no-op. *)

val span : ?cat:string -> ?res:bool -> string -> (span -> 'a) -> 'a
(** [span ~cat name f] times [f] with the monotonic clock and reports
    a [Span_begin]/[Span_end] pair around it (exception-safe). [cat]
    is the phase the span accounts to in per-phase breakdowns
    ("testability", "candidates", "merge", "reschedule", "atpg", ...).

    With [~res:true] the span additionally snapshots the GC before and
    after [f] and attaches allocation deltas to the closing event
    ([gc_minor_words], [gc_major_words], [gc_minor_collections],
    [gc_major_collections]), after any user-set arguments. Reserve it
    for coarse spans (whole runs, whole phases): the extra
    [Gc.quick_stat] is cheap but not free. *)

val set : span -> string -> value -> unit
(** Attach an argument to the running span; arguments are reported in
    insertion order on the [Span_end] event. *)

val count : ?by:int -> string -> unit
(** Increment a named counter (default 1). *)

val gauge : string -> float -> unit
(** Record the current value of a named gauge. *)

val sample : string -> float -> unit
(** Add an observation to a named histogram. *)

val instant : ?cat:string -> ?args:(string * value) list -> string -> unit
(** A point event. *)

val journal : Journal.event -> unit
(** Report a decision-journal event (as {!Decision}) to the installed
    sinks. Free when no sink is installed, like every other entry
    point. *)

val worker_span : worker:int -> ticket:int -> span_rec -> unit
(** Re-stamp a span captured inside a pool worker into the parent's
    sinks (as {!Worker_span}). Called by the pool pump as replies are
    parsed. *)

(** Process-resource sampler: GC statistics ([Gc.quick_stat]), user/sys
    CPU time ([Unix.times]) and resident-set size (current and peak,
    from [/proc/self/status]; reported as 0 where procfs is
    unavailable).

    Resource readings are host-dependent by nature, so they are kept
    out of every determinism contract: they are only ever reported as
    gauges under the reserved ["res."] name prefix, which trajectory
    and journal digests exclude and the pool merges by max. *)
module Res : sig
  type snapshot = {
    utime_s : float;          (** user CPU seconds *)
    stime_s : float;          (** system CPU seconds *)
    rss_kb : int;             (** current resident set, kB (VmRSS) *)
    max_rss_kb : int;         (** peak resident set, kB (VmHWM) *)
    minor_words : float;
    promoted_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    heap_words : int;         (** major-heap size, words *)
  }

  val snapshot : unit -> snapshot
  (** Read the current process's resources. Cheap (one [quick_stat],
      one [times], one procfs scan); suitable per commit, not per
      candidate. *)

  val delta : snapshot -> snapshot -> snapshot
  (** [delta a b]: monotone fields (CPU, GC words/collections) are
      [b - a]; point-in-time fields (rss, peak rss, heap size) are
      [b]'s. *)

  val is_gauge : string -> bool
  (** True for a name under the reserved ["res."] prefix: the one test
      every consumer uses to keep host-dependent readings apart. *)

  val gauges : snapshot -> (string * float) list
  (** Render as ["res."]-prefixed gauge pairs ([res.utime_s],
      [res.rss_kb], [res.gc.minor_words], ...). *)

  val emit : unit -> unit
  (** Snapshot and report every gauge from {!gauges} to the installed
      sinks. Free when no sink is installed. *)
end

(** In-memory aggregation sink. Self time of a span is its duration
    minus the durations of its direct children, so summing self time
    over all spans (grouped by category) reproduces the total observed
    wall time exactly — the per-phase breakdown always adds up. *)
module Summary : sig
  type t

  type span_stat = {
    spans : int;        (** number of completed spans *)
    total_ns : int64;   (** inclusive wall time *)
    self_ns : int64;    (** exclusive wall time *)
    max_ns : int64;     (** longest single span *)
  }

  type sample_stat = {
    n : int;
    sum : float;
    min_v : float;
    max_v : float;
  }

  val create : unit -> t

  val sink : t -> sink

  val phases : t -> (string * float) list
  (** Per-category self time in seconds, in first-seen order. *)

  val total_seconds : t -> float
  (** Total observed wall time = sum of {!phases}. *)

  val span_stats : t -> ((string * string) * span_stat) list
  (** Keyed by [(category, name)], first-seen order. *)

  val counters : t -> (string * int) list
  (** Counter sums, first-seen order. *)

  val counter : t -> string -> int
  (** A single counter's sum; 0 if never incremented. *)

  val gauges : t -> (string * float) list
  (** Last recorded value per gauge. *)

  val samples : t -> (string * sample_stat) list

  val histograms : t -> (string * int array) list
  (** Bucketed counts for latency samples only — those whose name ends
      in ["seconds"] — keyed like {!samples}, first-seen order. Each
      array holds per-bucket (non-cumulative) counts against
      {!Metrics.latency_buckets}, plus one final overflow slot for
      observations above the last bucket. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable report: per-phase breakdown (self time and
      share), per-span table, counters, gauges and histograms. *)
end

(** Prometheus text-exposition rendering of a {!Summary}, written to a
    file by [--metrics]. *)
module Metrics : sig
  val metric_name : string -> string
  (** Sanitize an event name into a valid Prometheus metric name:
      characters outside [[a-zA-Z0-9_:]] map to ['_'] and a leading
      digit is prefixed with ['_']. *)

  val latency_buckets : float array
  (** The fixed bucket ladder (upper bounds, seconds) every latency
      histogram uses: 0.5 ms up to 30 s, Prometheus-style. Part of the
      exposition contract — dashboards may hard-code it. *)

  val expose : ?res:bool -> Summary.t -> string
  (** Render the summary in Prometheus text exposition format (with
      [# HELP]/[# TYPE] headers): counters as [hlts_<name>_total]
      counters, gauges as [hlts_<name>] gauges, samples as summaries
      ([quantile="0"]/[quantile="1"] extremes plus [_sum]/[_count]) and
      per-phase self time as [hlts_phase_self_seconds{phase="..."}].
      Latency samples — names ending in ["seconds"] — render instead as
      proper histograms: cumulative [hlts_<name>_bucket{le="..."}]
      lines over {!latency_buckets}, a [le="+Inf"] line, then
      [_sum]/[_count]. When [res] is true (default) a fresh
      {!Res.snapshot} is appended as gauges and any recorded ["res.*"]
      gauges in the summary are dropped in its favour. *)

end

val journal_sink : (string -> unit) -> sink
(** [journal_sink write] is the JSONL event stream: one JSON object per
    event, one event per line, through [write]. Each {!Decision}
    becomes [{"j":<seq>, "ev":<kind>, ...}] where [seq] is a 0-based
    decision counter and the payload carries *no* timestamps — these
    lines are byte-identical at every [-j N]
    ({!Journal.is_decision_line} recognizes them). Every other event is
    [{"ev":"begin"|"end"|"count"|"gauge"|"sample"|"instant"|"wspan",
    "name":..., ...}] with timestamps in microseconds, so one file
    carries both the deterministic decision record and the timing
    context; consumers split the two with [is_decision_line]. *)

val heartbeat_sink : ?interval_ms:int -> (string -> unit) -> sink
(** [heartbeat_sink ~interval_ms write] appends one JSON snapshot line
    through [write] at most every [interval_ms] milliseconds (default
    100; 0 = on every event), aggregating events into an internal
    {!Summary}. Each line is a single [write] call of the form
    [{"hb":<seq>, "t_s":<elapsed>, "res":{...}, "counters":{...},
    "gauges":{...}}] so a concurrent reader ([hlts top]) never sees a
    torn line; ["res.*"] gauges are folded into the ["res"] object. The
    first event always produces a snapshot, and [flush] writes a last
    one flagged ["final":true], which tailing readers use to stop. *)

val chrome_sink : (string -> unit) -> sink
(** [chrome_sink write] captures like
    [Trace_ctx.collector ~lane:1 ~label:"hlts (parent)"] — spans on
    lane (pid) 1, each {!Worker_span} on lane [2 + worker] — and also
    keeps counter tracks (["C"]: a running total per {!Count}, the value
    for {!Gauge} and {!Sample}), instants (["i"]) and decisions (["i"]
    named [journal.<kind>] in the ["journal"] category). On [flush] it
    writes the complete [{"traceEvents":[...]}] document built by the
    renderer behind {!Trace_ctx.chrome_trace}: timestamps in
    microseconds from the earliest record, one ["process_name"] record
    per lane. *)

(** Request-scoped trace context, propagated through the [hlts serve]
    wire protocol: a 128-bit trace id plus a 64-bit span id (both
    lower-case hex) and a sampling flag. The client generates a context
    per request (or accepts one from its caller), the daemon echoes it
    in the reply together with the spans the request produced, and the
    client merges its own spans with the shipped ones into a single
    Chrome trace — client wait, daemon work and pool-worker lanes on
    one timeline.

    Everything here is telemetry, never content: trace ids come from a
    private splitmix64 stream (not {!Hlts_util.Rng}), request digests
    ignore the envelope's ["trace"] field, and journals are
    byte-identical with tracing on or off. *)
module Trace_ctx : sig
  type t = {
    trace_id : string;  (** 32 hex chars *)
    span_id : string;   (** 16 hex chars *)
    sampled : bool;     (** false = propagate ids but capture no spans *)
  }

  val generate : ?sampled:bool -> unit -> t
  (** Fresh random context ([sampled] defaults to [true]). Unique per
      call; deliberately not reproducible from any seed. *)

  val child : t -> t
  (** Same trace id, fresh span id — the context to hand to a
      downstream hop. *)

  val to_json : t -> Json.t
  (** [{"id":<32 hex>, "span":<16 hex>, "sampled":bool}]. *)

  val of_json : Json.t -> t option
  (** Inverse of {!to_json}; [None] on malformed ids. A missing
      ["sampled"] defaults to [true]. *)

  val of_envelope : Json.t -> t option
  (** Read the optional ["trace"] field of a request envelope. [None]
      when absent or malformed — frames from clients that predate
      tracing parse exactly as before. *)

  (** One completed span on some lane of the merged trace. Lanes:
      0 = client, 1 = daemon, [2 + w] = pool worker [w]. Timestamps are
      {!Clock} readings (end-of-span, like {!span_rec}) — meaningful
      across processes on one host, rebased by {!chrome_trace}. *)
  type span = {
    sp_lane : int;
    sp_label : string;  (** lane display name, e.g. ["daemon"] *)
    sp_name : string;
    sp_cat : string;
    sp_ts_ns : int64;
    sp_dur_ns : int64;
    sp_args : (string * value) list;
  }

  val span_to_json : span -> Json.t
  val span_of_json : Json.t -> span option
  (** Wire codec for shipped spans; [span_of_json] drops non-scalar
      argument values and returns [None] on missing fields. *)

  val collector : lane:int -> label:string -> unit -> sink * (unit -> span list)
  (** [collector ~lane ~label ()] is a sink that records the process's
      own [Span_end] events as lane [lane] spans and pool
      [Worker_span] events as lane [lane + 1 + worker] spans, plus a
      function returning everything captured so far in completion
      order. *)

  val chrome_trace : ?meta:(string * Json.t) list -> span list -> Json.t
  (** Render spans (any mix of lanes) as one complete Chrome
      [trace_event] document: one ["process_name"] record per lane,
      ["X"] records with microsecond timestamps rebased to the earliest
      span start. [meta] fields are appended to the top-level object.
      {!chrome_sink} writes its documents with the same renderer. *)
end
