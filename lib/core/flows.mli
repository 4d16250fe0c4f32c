(** The four synthesis flows compared in the paper's evaluation.

    - [Camad]: the CAMAD high-level synthesis system without testability
      consideration — the same iterative merger engine driven by the
      conventional connectivity/closeness criterion.
    - [Approach1]: force-directed scheduling (no testability
      consideration) followed by Lee's allocation (I/O-anchored left-edge
      registers, greedy module binding).
    - [Approach2]: Lee's mobility-path scheduling followed by the same
      allocation.
    - [Ours]: Algorithm 1 — integrated scheduling and allocation under the
      controllability/observability balance principle. *)

type approach =
  | Camad
  | Approach1
  | Approach2
  | Ours

val approach_name : approach -> string
val approach_of_string : string -> approach option

type outcome = {
  approach : approach;
  state : State.t;
  etpn : Hlts_etpn.Etpn.t;
  records : Synth.record list;  (** empty for the separate-step flows *)
}

val synthesize :
  ?params:Synth.params -> ?jobs:int -> approach -> Hlts_dfg.Dfg.t -> outcome
(** [params] applies to the iterative flows ([Ours], [Camad]); the
    separate-step flows schedule at the critical-path latency. [jobs]
    (also only meaningful for the iterative flows) evaluates merge
    candidates on that many pooled workers — see {!Synth.run}; the
    outcome is bit-identical to the serial run.
    @raise Invalid_argument if a separate-step flow fails to schedule
    (cannot happen on an acyclic DFG). *)
