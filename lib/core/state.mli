(** Synthesis state: the design under stepwise refinement.

    Holds the DFG, the precedence constraints accumulated by merger
    transformations, the current schedule (always the ASAP schedule of the
    constraints — rescheduling with dummy control steps falls out of the
    recomputation), and the current register/module partition. *)

type caches
(** Memoized derived views (consistency, data-path view, testability,
    H per bit width, ETPN) — pure functions of the state, forced at most
    once per state. Opaque: states are created through {!init}, {!make},
    {!with_constraints} and {!with_binding}, which install fresh
    caches. *)

type t = {
  dfg : Hlts_dfg.Dfg.t;
  cons : Hlts_sched.Constraints.t;
  schedule : Hlts_sched.Schedule.t;
  binding : Hlts_alloc.Binding.t;
  caches : caches;
}

val make :
  ?area:(int * float) list ->
  dfg:Hlts_dfg.Dfg.t ->
  cons:Hlts_sched.Constraints.t ->
  schedule:Hlts_sched.Schedule.t ->
  binding:Hlts_alloc.Binding.t ->
  unit ->
  t
(** A state from explicit parts (the schedule is trusted to match the
    constraints). [area] (a [bits -> mm2] listing) seeds the H memo for
    callers that already know it — the pool workers receive it over the
    wire with each rebase, which saves every worker one floorplan of the
    committed design per iteration. Trusted, like the schedule: a wrong
    seed silently skews every later delta. *)

val init : Hlts_dfg.Dfg.t -> t
(** Algorithm 1 line 1: simple default scheduling (ASAP) and default
    allocation (one data-path node per operation and value). *)

val etpn : t -> Hlts_etpn.Etpn.t
(** The ETPN of the current state, built (and validated) by
    {!Hlts_etpn.Etpn.build} on first use and memoized. Synthesis never
    asks for it; the final design, test points and reports do.
    @raise Invalid_argument if the state is inconsistent (internal
    error). *)

val datapath : t -> Hlts_etpn.Datapath.t
(** The schedule-free data-path view of (dfg, binding), built on first
    use and memoized — the only structure E, H and the analysis read.
    @raise Invalid_argument if the state is not {!consistent}. *)

val execution_time : t -> int
(** E: the schedule length. The ETPN's control part is implicit: it is
    always the chain of the schedule's steps, whose timed-Petri-net
    critical path (the paper's E) is the step count. The tests hold
    this against a reference Petri net. *)

val analysis : t -> Hlts_testability.Testability.t
(** Controllability/observability analysis of {!datapath}, computed on
    first use and memoized — one Algorithm-1 iteration reads the same
    state's analysis for both candidate scoring and the committed
    record's sequential depth. *)

val area : t -> bits:int -> float
(** H: floorplanned hardware cost of {!datapath} at the given bit width.
    Memoized per width in an assoc list, so interleaving queries at
    different widths (e.g. evaluating one state for several library
    points) never recomputes. *)

val with_constraints : t -> Hlts_sched.Constraints.t -> t option
(** Recomputes the ASAP schedule under new constraints; [None] if they
    are cyclic. The binding is kept. *)

val with_binding : t -> Hlts_alloc.Binding.t -> t

val consistent : t -> bool
(** Schedule respects the DFG + constraints and the binding validates.
    Memoized. *)
