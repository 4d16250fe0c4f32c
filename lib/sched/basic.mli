(** Baseline scheduling algorithms: ASAP, ALAP and mobility. All honour
    the extra ordering arcs of the constraint set. *)

val asap : Constraints.t -> (Schedule.t, string) result
(** Earliest feasible step for every operation. Errors on a cyclic
    constraint set. *)

val asap_exn : Constraints.t -> Schedule.t

val alap : Constraints.t -> latency:int -> (Schedule.t, string) result
(** Latest feasible steps within [latency] steps. Errors if [latency] is
    below the critical path or the constraints are cyclic. *)

val mobility : Constraints.t -> latency:int -> (int * int) list
(** Per-operation [alap - asap] slack, ascending op id. *)
