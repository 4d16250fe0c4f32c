(** Persistent worker pool over OCaml 5 domains.

    A pool starts [jobs] deterministic {e lanes} once and streams tasks
    to them. Lanes are multiplexed onto at most
    [Domain.recommended_domain_count ()] worker domains (override with
    [HLTS_DOMAINS]); when that budget is one core the pool spawns no
    domain at all and runs its lanes inline on the caller's domain.
    Workers share the parent's heap: tasks and results are passed as
    ordinary values through Mutex+Condition queues — no Marshal
    anywhere on the path — so large compiled structures (bitsets, Sim
    CSRs, PPSFP plans) and results holding closures or lazies cross the
    pool by reference.

    Determinism: tasks are assigned round-robin by ticket
    ([id mod jobs]), each lane processes its tasks in FIFO order, and
    {!await}/{!map} hand results back keyed by ticket, so the caller
    observes results in a schedule-independent order — the same order
    at every job count, domain count and in inline mode.

    Observability: workers start with no sinks of their own (a fresh
    domain-local list) and, when the parent had a sink installed at
    creation time, capture their own counter increments, histogram
    samples, gauge settings and decision-journal events per task; the
    captured {!tally} travels back with each result so the parent can
    {!replay} it into its own sinks — selectively, which is what lets
    speculative callers account only the work a sequential run would
    have performed. Completed span records also travel back and are
    re-stamped into the live sinks as [Worker_span] events (lane =
    worker index, ticket = the reply's ticket), so a single trace shows
    the parent pump and every worker lane. The pool also reports a
    ["<name>.queue_depth"] gauge (total in-flight tasks) on submits and
    replies. When the parent had {e no} sink installed, workers skip
    capture entirely: [Hlts_obs.enabled ()] is false inside a worker,
    so task code can skip its own capture paths. *)

val default_jobs : unit -> int
(** The [HLTS_JOBS] environment variable as an int, else 1. *)

val in_worker : unit -> bool
(** [true] inside a pool worker (worker domain or inline lane). Used
    to keep workers from starting pools of their own (nested
    parallelism would oversubscribe the machine; callers fall back to
    their serial path instead). *)

val worker_index : unit -> int
(** The 0-based lane of the calling worker ([0] outside any worker).
    Tasks needing per-worker mutable slots (scratch buffers, re-based
    states) index a [jobs]-sized array with this: slot [i] is only ever
    touched by lane [i]. *)

val worker_group : unit -> int
(** The calling worker's {e sharing group} ([0] outside any worker):
    the serving domain, i.e. the set of lanes guaranteed to execute
    sequentially, never concurrently. Tasks whose per-worker slots hold
    {e redundant} copies of the same data (a re-based state, a memo
    cache) should index them by group instead of lane: same isolation
    guarantee, and the copies — and the lazy recomputation inside them
    — collapse to one per domain. Keep per-{e lane} indexing for
    anything that must differ per lane. Group indices stay within
    [0 .. jobs-1]. *)

type ('task, 'res) t
(** A pool computing ['task -> 'res]. *)

type ticket
(** Handle for one submitted task. *)

(** Counter increments, histogram samples, gauge settings and
    decision-journal events captured in a worker while it ran one task,
    in emission order (counters aggregated by name, gauges
    last-value-per-name). ["res."]-prefixed gauges are host-dependent
    readings and are never captured — worker resources travel as
    {!wres} instead — so a tally is deterministic content. *)
type tally = {
  counts : (string * int) list;
  samples : (string * float) list;
  gauges : (string * float) list;
  decisions : Hlts_obs.Journal.event list;
}

(** Cumulative resource usage of one lane, snapshotted as each
    instrumented reply is sent (uninstrumented runs skip the sampling).
    The GC fields are domain-local while CPU and RSS are process-wide
    readings. *)
type wres = {
  wr_tasks : int;              (** tasks served so far *)
  wr_utime_s : float;          (** user CPU seconds *)
  wr_stime_s : float;          (** system CPU seconds *)
  wr_rss_kb : int;             (** current resident set, kB *)
  wr_max_rss_kb : int;         (** peak resident set, kB *)
  wr_minor_words : float;
  wr_major_words : float;
  wr_major_collections : int;
}

val create : ?name:string -> jobs:int -> ('task -> 'res) -> ('task, 'res) t
(** [create ~jobs f] starts [max jobs 1] lanes evaluating [f]. [name]
    labels the pool's observability spans (default ["pool"]).
    @raise Invalid_argument if the caller is itself a pool worker, or
    [HLTS_DOMAINS] is set but not a positive integer. *)

val jobs : _ t -> int
(** Number of lanes actually started. *)

val parallelism : _ t -> int
(** How many of this pool's lanes can execute at the same instant: the
    spawned domain count (at most [Domain.recommended_domain_count ()],
    override with [HLTS_DOMAINS]), or [1] when the pool executes
    inline. Callers sizing {e speculative} work — batches evaluated
    eagerly in the hope that parallel hardware makes them free — should
    scale by this, not by {!jobs}: lanes beyond it are deterministic
    bookkeeping that run sequentially, where speculation is pure
    cost. *)

val broadcast : ('task, _) t -> 'task -> unit
(** [broadcast t x] queues [x] to every lane as a control task: each
    lane evaluates [f x] for its side effect (no reply, result and
    tally discarded). Lanes process it before any task submitted later
    — per-lane FIFO order is the only ordering guarantee. A control
    task that raises poisons the lane: subsequent tasks on that lane
    fail at {!await}. *)

val submit : ('task, 'res) t -> 'task -> ticket
(** Queue one task; returns immediately. *)

val await : ('task, 'res) t -> ticket -> 'res * tally
(** Block until the task's reply arrives (sleeping on the reply
    condition, or running queued tasks in submission order when the
    pool is inline). Each ticket may be awaited once.
    @raise Failure if the task raised in the worker or its worker
    domain died before replying. *)

val replay : tally -> unit
(** Re-emit the captured counters, samples, gauges and journal
    decisions into the parent's sinks ([Obs.count] / [Obs.sample] /
    [Obs.gauge] / [Obs.journal] per entry, in captured order). *)

val merge_gauges : tally list -> (string * float) list
(** Deterministic cross-worker gauge merge: the maximum value recorded
    per gauge name over all tallies, names in first-seen order. Because
    the multiset of per-task (name, value) pairs is independent of the
    job count, the merged list is byte-identical at every [-j N]. *)

val worker_resources : _ t -> (int * wres) list
(** Latest resource snapshot per lane (lanes that have not yet replied
    to an instrumented task are absent), ascending by lane index. The
    pool also folds these into ["<name>.workers_rss_kb"],
    ["<name>.workers_cpu_s"] and ["<name>.workers_tasks"] gauges as
    replies arrive — RSS and CPU max'd across lanes (they are
    process-wide readings), tasks summed. *)

val map : ('task, 'res) t -> 'task list -> 'res list
(** [map t xs] submits every element, awaits them in order, replays
    every tally (counters/samples/decisions per ticket; gauges once per
    batch via {!merge_gauges}), and returns the results in input order.
    Equivalent to [List.map f xs] run serially, up to event timing.
    @raise Failure as {!await}. *)

val shutdown : _ t -> unit
(** Stop every worker (joining its domain). Idempotent. Outstanding
    tickets are abandoned. *)

val with_pool :
  ?name:string -> jobs:int -> ('task -> 'res) ->
  (('task, 'res) t -> 'a) -> 'a
(** [with_pool ~jobs f k] runs [k pool] and guarantees {!shutdown} on
    the way out, exception or not. *)
