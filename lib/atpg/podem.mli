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

    There is one engine: the faulty plane is swept only inside the
    fault site's sequential output cone ({!Hlts_sim.Sim.cone});
    everything outside it provably carries the good value. The sweeps
    also keep the state the search reads between implications, so no
    step rescans the unrolling: the D-frontier (one gate bitmask per
    frame, each re-evaluated cone gate's bit recomputed from the values
    its evaluation read), the number of primary-output entries carrying
    a D or D-bar (detection) and the number of frames whose site value
    activates the fault. A decision therefore costs the gates its
    implication changed plus the frontier gates its objective walk
    visits. The one other entry point, {!Test_hook}, exists for the
    test suite alone: it lets a full-sweep reference replace the sweep
    and the three steps that read its state and keep the rest of the
    search, so that tests can check the engine bit-for-bit, and it
    exposes the kept state read-only.

    All searches of one ATPG run share one {!workspace}: it reads the
    circuit through the tables {!Hlts_sim.Sim.compile} already built
    (driver, flip-flop and primary-input indexes, fanout CSRs, the
    compact gate encoding) and owns the scratch every fault reuses —
    the good, faulty and assignment planes and the D-frontier bitmasks,
    grown on demand to the deepest unrolling depth tried (the
    assignment plane is reset per depth over the prefix that depth
    uses), the good plane of the
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
  | No_test_in_frames
      (** search exhausted within the frame budget. The backtrace
          commits to one input per objective, so this is not a proof
          that no test exists. *)
  | Aborted            (** backtrack limit hit *)

type stats = {
  implications : int;
  backtracks : int;
  depth : int;
      (** deepest unrolling depth tried: the test's length when
          detected, [max_frames] otherwise *)
}

type workspace

val workspace : Hlts_sim.Sim.t -> workspace
(** Scratch for PODEM runs over one compiled circuit. Allocates no
    plane until the first {!generate}. *)

val generate :
  workspace ->
  max_frames:int ->
  max_backtracks:int ->
  Hlts_fault.Fault.t ->
  verdict * stats
(** The search of one fault, unrolling 1 to [max_frames] frames. Each
    depth has its own [max_backtracks]; the budget of 1500
    three-valued resimulations is shared by all depths. A depth that
    exhausts either budget makes the verdict [Aborted] unless a deeper
    one finds a test. *)

(** {2 Test-only hook}

    Not for product code: the test suite's full-sweep reference PODEM
    plugs in here. {!Test_hook.generate} runs the very search
    {!generate} runs — contexts, the activation objective, backtrace,
    backtracking, the depth loop, the budgets and the stats — with the
    sweep and the three steps that read what {!generate}'s sweep keeps
    (detection, activation, the D-frontier) supplied by the caller.
    Comparing the two therefore checks exactly the cone restriction and
    the kept state. {!Test_hook.observe} runs {!generate} itself and
    shows the kept state after every sweep. *)

module Test_hook : sig
  type view = {
    frames : int;  (** unrolling depth *)
    n : int;
        (** nets per frame: plane entry [f * n + net] is [net] in frame
            [f] *)
    site : int;  (** the fault's net *)
    sv : int;  (** its stuck value, 0 or 1 *)
    gv : int array;  (** good plane: 0, 1 or 2 = X *)
    fv : int array;  (** faulty plane: 0, 1 or 2 = X *)
    asg : int array;
        (** the primary-input assignment: 0, 1 or 2 = X (undecided);
            read-only *)
  }
  (** The search state at one depth. Only the first [frames * n]
      entries of each plane belong to it. *)

  type steps = {
    sweep : view -> unit;
        (** three-valued simulation of both planes over all [frames]
            from [asg]: X initial state, the fault forced in every
            frame *)
    detect : view -> bool;
        (** does some frame's primary output carry a D or D-bar (both
            planes defined and different)? *)
    activated : view -> bool;
        (** is the fault activated: does some frame carry a D or D-bar
            at the site? When not, the search drives the site to the
            opposite of its stuck value. *)
    dfrontier : view -> backtrace:(int -> int -> int -> int) -> int;
        (** the D-frontier step once the fault is activated.
            [backtrace f net v] walks the objective "[net] of frame [f]
            to [v]" back to an undecided primary input and returns that
            decision, or a negative number when it dead-ends. The step
            returns the first non-negative decision over its objectives,
            or -1. *)
  }

  val generate :
    steps ->
    workspace ->
    max_frames:int ->
    max_backtracks:int ->
    Hlts_fault.Fault.t ->
    verdict * stats

  type state = {
    planes : view;
    frontier : int -> int -> bool;
        (** [frontier f gi]: is levelized gate [gi]
            ({!Hlts_sim.Sim.ops}) in frame [f]'s D-frontier (output X
            in either plane, a D or D-bar on some input)? *)
    detections : int;
        (** (frame, primary-output list entry) pairs carrying a D or
            D-bar, an output listed twice counting twice *)
    activations : int;
        (** frames whose good site value is the opposite of [sv] *)
  }
  (** What {!generate}'s sweep keeps, after one sweep. Read-only, and
      valid only during the callback that receives it. *)

  val observe :
    (state -> unit) ->
    workspace ->
    max_frames:int ->
    max_backtracks:int ->
    Hlts_fault.Fault.t ->
    verdict * stats
  (** [observe check] is {!generate} with [check] called on the kept
      state after every sweep, before the search reads it. *)
end
