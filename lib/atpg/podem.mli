(** PODEM over a time-frame-expanded sequential circuit.

    The circuit is unrolled [k] frames with an unknown (X) initial state;
    every control and data primary input of every frame is a decision
    variable. The target fault is present in all frames. A test is found
    when a frame's primary output carries a D/D-bar (good and faulty
    planes defined and different) — because the initial state is X, any
    such test detects the fault from {e every} power-up state, so
    replaying it on the zero-initialized simulator is guaranteed to
    observe the fault.

    Standard PODEM search: objective (activate the fault, then extend the
    D-frontier), backtrace to an unassigned primary input through gates
    and — across frames — through flip-flops, imply by three-valued
    resimulation of both planes, backtrack on conflict. Frame counts are
    tried from 1 up to [max_frames] so sequentially deeper faults cost
    visibly more effort, which is exactly the behaviour the paper's
    sequential-depth argument predicts.

    All searches of one ATPG run share one {!workspace}: it reads the
    circuit through the tables {!Hlts_sim.Sim.compile} already built
    (driver, flip-flop and primary-input indexes, fanout CSRs, the
    compact gate encoding) and owns the scratch every fault reuses —
    the good, faulty and assignment planes, grown on demand to the
    deepest unrolling depth tried (the assignment plane is reset per
    depth over the prefix that depth uses), the good plane of the
    unrolling with no input assigned, from which every depth's first
    sweep starts, and the event-driven sweep's schedule masks. A
    workspace is mutable and not thread-safe: give each concurrent run
    its own. Results never depend on what the workspace searched
    before. *)

type test = {
  t_frames : (int * bool) list array;
      (** per frame: assigned PI nets, ascending; unassigned PIs are
          free (filled with 0 on replay) *)
}

type verdict =
  | Detected of test
  | No_test_in_frames  (** search exhausted within the frame budget *)
  | Aborted            (** backtrack limit hit *)

type stats = {
  implications : int;
  backtracks : int;
  depth : int;
      (** deepest unrolling depth tried: the test's length when
          detected, [max_frames] otherwise *)
}

type engine = [ `Cone | `Full ]
(** [`Cone] (the default) restricts the faulty plane, the D-frontier
    scan and the detection scan to the fault site's sequential output
    cone ({!Hlts_sim.Sim.cone}); everything outside the cone provably
    carries the good value, so verdicts, tests and stats are
    bit-identical to [`Full] — the pre-cone full-sweep search, the
    reference the property tests compare against. *)

type workspace

val workspace : Hlts_sim.Sim.t -> workspace
(** Scratch for PODEM runs over one compiled circuit. Allocates no
    plane until the first {!generate}. *)

val generate :
  ?max_implications:int ->
  ?engine:engine ->
  workspace ->
  max_frames:int ->
  max_backtracks:int ->
  Hlts_fault.Fault.t ->
  verdict * stats
(** [max_implications] (default 1500) bounds the total three-valued
    resimulations spent on one fault across all unrolling depths. *)
