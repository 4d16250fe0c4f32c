(** End-to-end evaluation pipeline: benchmark x approach x bit width
    -> one row of the paper's tables.

    The pipeline synthesizes the design with the chosen flow, expands the
    resulting ETPN to gates at the requested width, runs the ATPG stack,
    and collects the structural metrics (allocation listing, multiplexer
    count, floorplanned area). *)

type row = {
  approach : Hlts_synth.Flows.approach;
  bits : int;
  schedule_length : int;
  n_registers : int;
  n_fus : int;
  n_mux : int;                      (** 2-to-1 multiplexer slices *)
  module_allocation : string list;  (** "(mul): N21, N24" per unit *)
  register_allocation : string list;
  fault_coverage_pct : float;
  tg_effort : int;                  (** deterministic TG cost *)
  tg_seconds : float;               (** measured CPU seconds *)
  tg_random_seconds : float;        (** random grading phase wall time *)
  tg_det_seconds : float;           (** deterministic (PODEM) phase wall time *)
  test_cycles : int;
  area_mm2 : float;
  seq_depth : float;                (** testability sequential-depth metric *)
  gate_count : int;
  detect_digest : string;           (** {!Hlts_atpg.Atpg.result.detect_digest} *)
}

val params_for_bits : int -> Hlts_synth.Synth.params
(** The paper's parameter triples: (k, alpha, beta) = (3, 2, 1) at 4 bits,
    (3, 10, 1) at 8 bits, (3, 1, 10) at 16 bits (§5); [bits] is also the
    hardware-estimation width. Other widths fall back to (3, 2, 1). *)

val evaluate :
  ?params:Hlts_synth.Synth.params ->
  ?atpg:Hlts_atpg.Atpg.config ->
  ?jobs:int ->
  Hlts_synth.Flows.approach ->
  Hlts_dfg.Dfg.t ->
  bits:int ->
  row
(** [params] defaults to {!params_for_bits}; [atpg] to
    {!Hlts_atpg.Atpg.default_config}. [jobs] goes to
    {!Hlts_atpg.Atpg.run} (worker count); the row is bit-identical at
    every job count except the timing fields. *)

val row_of_atpg :
  Hlts_synth.Flows.outcome -> bits:int -> Hlts_atpg.Atpg.result -> row
(** Assembles a table row from an already-run ATPG result. The
    structural metrics come from the outcome's ETPN; the area and the
    sequential depth are the state's memoized {!Hlts_synth.State.area}
    and {!Hlts_synth.State.analysis}, so they describe the synthesized
    design even when the outcome carries an ETPN with test points.
    {!evaluate_outcome} is [row_of_atpg] after expanding the
    ETPN and running the ATPG stack; the {!Engine} uses this directly so
    a cached fault-simulation result skips that work. *)

val evaluate_outcome :
  ?atpg:Hlts_atpg.Atpg.config ->
  ?jobs:int ->
  Hlts_synth.Flows.outcome ->
  bits:int ->
  row
(** Evaluates an already-synthesized design at a bit width. The paper's
    tables report one allocation per approach measured at 4/8/16 bits
    ("the chosen parameters ... achieve the same allocation and
    scheduling"), so {!Experiments} synthesizes once and calls this per
    width. *)

val outcome :
  ?params:Hlts_synth.Synth.params ->
  ?jobs:int ->
  Hlts_synth.Flows.approach ->
  Hlts_dfg.Dfg.t ->
  bits:int ->
  Hlts_synth.Flows.outcome
(** Synthesis only (no gate expansion/ATPG) — used by the figures.
    [jobs] parallelizes candidate evaluation (see {!Hlts_synth.Synth.run});
    the outcome is bit-identical regardless. *)
