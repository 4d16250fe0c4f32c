(** Algorithm 1: the integrated scheduling/allocation test-synthesis
    loop.

    Each iteration runs the testability analysis, selects [k] candidate
    pairs by the controllability/observability balance principle (or by
    connectivity, for the CAMAD-style ablation), estimates the
    incremental execution-time cost dE and hardware cost dH of each
    feasible merger, commits the pair with the smallest
    [alpha * dE + beta * dH], and reschedules. It stops when no feasible
    merger remains. *)

(** When to stop merging. [Cost_improving] — the evaluation setting of
    the paper's area-optimized designs — commits a merger only while the
    cheapest candidate has [alpha * dE + beta * dH < 0], i.e. it pays for
    itself; [Exhaustive] keeps going literally "until no merger exists"
    (Algorithm 1 line 15), compacting to one unit per class. *)
type stop =
  | Cost_improving
  | Exhaustive

type params = {
  k : int;         (** candidate pairs per iteration; small = testability-driven *)
  alpha : float;   (** weight of the execution-time increment *)
  beta : float;    (** weight of the hardware-cost increment *)
  bits : int;      (** data-path width used for hardware estimation *)
  strategy : Candidates.strategy;
  stop : stop;
  latency_factor : float;
      (** latency budget: no merger may stretch the schedule beyond
          [ceil (latency_factor * critical path)] control steps. The
          paper's area-optimized designs trade time for area only within
          such a bound (its Ex/Diffeq schedules run ~1.5x the critical
          path). Use [infinity] to disable. *)
  max_iterations : int;
}

val default_params : params
(** (k, alpha, beta) = (3, 2, 1), 8 bits, Balance strategy,
    [Cost_improving], latency factor 1.5 — the paper's 4-bit/8-bit
    parameter neighbourhood. *)

type record = {
  iteration : int;
  description : string;
  delta_e : int;      (** control steps *)
  delta_h : float;    (** mm2 *)
  cost : float;       (** alpha * dE + beta * dH, with dH normalized to
                          register-equivalents at [bits] so the two terms
                          are commensurate *)
  seq_depth : float;  (** sequential-depth metric after the merger *)
}

type result = {
  final : State.t;
  records : record list;     (** committed mergers, in order *)
  iterations : int;
}

val run :
  ?params:params -> ?jobs:int -> Hlts_dfg.Dfg.t -> result
(** Runs Algorithm 1 from the default allocation/schedule. The result
    state is always consistent.

    [jobs] (default: the [HLTS_JOBS] environment variable, else 1)
    evaluates merge candidates on a persistent pool of that many
    lanes ({!Hlts_pool.Pool}): the top-k attempts run concurrently, and
    the widening scan speculatively evaluates [parallelism * k]
    candidates per chunk, committing the first acceptable one in score
    order. The committed trajectory — records, digests, final state and
    observability counters — is bit-identical to [jobs = 1]; only
    wall-clock time changes. Runs the serial path when the caller is
    itself a pool worker.
    @raise Invalid_argument as {!Hlts_pool.Pool.create}. *)
