(** The paper's experiments (DESIGN.md §3), each regenerating one table
    or figure. All runs are deterministic for a fixed ATPG seed. *)

val approaches : Hlts_synth.Flows.approach list
(** CAMAD, Approach 1, Approach 2, Ours — the row order of the tables. *)

val widths : int list
(** 4, 8, 16 — the paper's implementations. *)

val table_rows :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> ?jobs:int ->
  ?bench:string -> Hlts_dfg.Dfg.t ->
  Eval.row list
(** All approaches at all widths for one benchmark: the body of
    Tables 1, 2, 3, issued as one {!Engine.Sweep}. Rows are grouped by
    approach, widths ascending. [engine] carries the cache (and its
    jobs setting) across calls — [hlts serve] and the bench harness
    pass one; without it a fresh memory-only engine reproduces the
    historical single-shot behavior, where [jobs] fans the (approach,
    width) ATPG cells out over that many pool workers
    ({!Engine.fan_out}); the default is [Pool.default_jobs ()]
    ([HLTS_JOBS], else 1 = the exact in-process serial path). The rows
    are identical for every job count and cache state. *)

val table1 :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> ?jobs:int ->
  unit -> Eval.row list
(** Ex benchmark (Table 1). *)

val table2 :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> ?jobs:int ->
  unit -> Eval.row list
(** Dct benchmark (Table 2). *)

val table3 :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> ?jobs:int ->
  unit -> Eval.row list
(** Diffeq benchmark (Table 3). *)

val extra_rows :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> ?jobs:int ->
  unit -> (string * Eval.row list) list
(** EWF, Paulin and Tseng at 8 bits (experiment X1: the benchmarks the
    paper ran but omitted for space). [engine]/[jobs] as in
    {!table_rows}. *)

val ablation_params :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> unit ->
  ((int * float * float) * Eval.row) list
(** Experiment X2: (k, alpha, beta) sweep of "Ours" on Ex at 8 bits — the
    paper's claim that the parameters "do not influence so much the final
    results". *)

val ablation_balance :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> unit ->
  (string * Eval.row) list
(** Experiment X3: the same iterative engine with Balance vs Connectivity
    selection on Ex/Dct/Diffeq at 8 bits — isolating the contribution of
    the balance principle. *)

val ablation_latency :
  ?engine:Engine.t -> ?atpg:Hlts_atpg.Atpg.config -> unit ->
  ((string * float) * Eval.row) list
(** Experiment X5 (extension): time-for-area design-space sweep — "Ours"
    on Ex and Diffeq at 8 bits under latency budgets of 1.0x, 1.25x,
    1.5x and 2.0x the critical path. Shows the schedule-length / area /
    coverage frontier Algorithm 1's dE term navigates. *)

val scan_comparison :
  ?atpg:Hlts_atpg.Atpg.config -> unit -> (string * Eval.row * float * int) list
(** Experiment X6 (extension): the paper's non-scan designs versus their
    full-scan versions — (benchmark, non-scan row of Ours at 8 bits,
    full-scan coverage %, full-scan effort). Quantifies the coverage the
    non-scan flow trades for avoiding scan hardware and shift cycles. *)

val bist_comparison :
  ?seed:int -> unit -> (string * (string * float) list) list
(** Experiment X7 (extension): BIST-mode fault coverage (LFSR stimuli,
    MISR signature, no deterministic TG) of all four flows at 8 bits —
    the self-testable-data-path evaluation of the paper's related work
    (Papachristou et al., Avra). Returns per benchmark the
    (approach, coverage %) list. *)

val test_points :
  ?atpg:Hlts_atpg.Atpg.config -> unit -> (string * Eval.row * Eval.row) list
(** Experiment X4 (extension): fault coverage of the CAMAD designs at
    8 bits without and with two analysis-recommended observation points —
    the follow-up move when scheduling freedom is exhausted. Returns
    (benchmark, baseline row, with-test-points row). *)
