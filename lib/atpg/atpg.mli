(** Test generation for the synthesized data path: random phase followed
    by deterministic PODEM, reporting the paper's three test metrics.

    Random phase: up to 64 independent random input sequences advance
    in parallel (one per bit lane) for [random_cycles] clocks; the batch
    is recorded once as a good {!Hlts_sim.Sim.trajectory} and every
    collapsed fault is graded against it with early exit on first
    detection, for [random_batches] rounds.

    Deterministic phase: each remaining fault goes to
    {!Podem.generate}, all of them through one {!Podem.workspace} per
    run; each call's fault, deepest unrolling depth, implications,
    backtracks and verdict ([d]etected, [a]borted, [u]ntested within the
    frame budget) are attached to its [atpg.podem] span. Generated tests
    accumulate into 64-lane batches
    that are graded against the still-undetected faults (fault
    dropping), including one final pass over aborted faults.

    Fault grading has one engine, {!Hlts_sim.Ppsfp}: the good machine
    plus up to 62 faulty machines share one word per net, so one sweep
    retires a whole word of faults. Its verdicts equal a per-fault full
    sweep of each fault alone (property-tested against the reference in
    [test/oracle.ml]).

    Metrics:
    - fault coverage: detected / total collapsed faults;
    - test length ("test generated cycle"): detecting prefix cycles of
      the kept random sequences plus the frames of every deterministic
      test;
    - effort: PODEM implications + backtracks + replay evaluations,
      a deterministic machine-independent cost; [seconds] is the
      measured CPU time. *)

type config = {
  seed : int;
  random_lanes : int;    (** parallel random sequences per batch, 1-64 *)
  random_cycles : int;
  random_batches : int;
  max_frames : int;
  max_backtracks : int;
  collapse_gate_inputs : bool;
      (** also collapse controlling-value gate-input faults
          ({!Hlts_fault.Fault.collapse}); default [false] so published
          table numbers are unchanged *)
}

val default_config : config
(** seed 1, 2 lanes x 12 cycles x 1 batch, 5 frames, 20 backtracks —
    a late-90s-scale test-generation budget, so fault coverage stays
    sensitive to the data path's testability instead of saturating. *)

type result = {
  total_faults : int;
  detected_random : int;
  detected_det : int;     (** PODEM tests + fault dropping *)
  undetected : int;       (** aborted or no test within the frame budget *)
  coverage : float;       (** in [0, 1] *)
  test_cycles : int;
  effort : int;
  evals : int;            (** fault-replay cycle evaluations (effort term) *)
  seconds : float;
  random_seconds : float; (** wall time of the random grading phase *)
  det_seconds : float;    (** wall time of the deterministic (PODEM) phase *)
  gate_count : int;
  dff_count : int;
  detect_digest : string;
      (** MD5 hex over the ordered detection/abort event log (fault,
          phase, detecting cycle and lane word) — equal digests mean the
          runs detected the same faults the same way, the invariant the
          bench drift job checks *)
}

val run : ?config:config -> ?jobs:int -> Hlts_netlist.Netlist.t -> result
(** [jobs] (default 1) fans PPSFP word batches out over a worker pool
    ({!Hlts_pool.Pool}); every result field is byte-identical at any job
    count (word verdicts are merged in word order and observability
    tallies are replayed per ticket). Each pool lane grades into its own
    plane scratch.
    @raise Invalid_argument as {!Hlts_pool.Pool.create}. *)

val pack_tests : Hlts_sim.Sim.t -> Podem.test list -> Hlts_sim.Sim.trajectory
(** [pack_tests sim tests] packs up to 64 tests, one per bit lane, and
    records the good trajectory over them ({!Hlts_sim.Sim.record}):
    each cycle assigns every PI, in {!Hlts_sim.Sim.pi_nets} order, the
    word whose lane [i] bit is test [i]'s value for it in that frame.
    A PI a test leaves unassigned, or a test shorter than the batch,
    reads 0; assignments to non-PI nets are ignored. *)

val coverage_pct : result -> float
(** [100 * coverage]. *)
