(** Variable lifetime analysis under a schedule (Algorithm 1 line 13).

    Register-transfer timing: a value produced at control step [d] is
    loaded into its register at the end of step [d] and occupies it from
    step [d+1] through its last reading step. A primary input is loaded
    from its port just before its first use (so staged inputs can share a
    register); primary outputs have a virtual final read at step
    [length+1]. Lifetimes are half-open intervals
    [\[birth, death)] of occupied steps; two values may share a register
    iff their intervals do not overlap — a value read at step [s] is
    compatible with one written at the end of [s].

    {!occupancy} applies the same rule, through the same function, to a
    dense step array (such as {!Hlts_sched.Constraints.levels}) read
    through {!Hlts_dfg.Dfg.value_rows}, with no schedule in between: it
    is the SR2 trial metric of the merge engine, run twice per
    head-to-head decision. *)

type interval = {
  birth : int;  (** first step the register is occupied; def step + 1 *)
  death : int;  (** exclusive: last reading step + 1 *)
}

val of_schedule :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> (Hlts_dfg.Dfg.value * interval) list
(** Lifetime of every storage value, in {!Hlts_dfg.Dfg.values} order. *)

val interval_of :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> Hlts_dfg.Dfg.value -> interval

val intervals_of :
  Hlts_dfg.Dfg.t ->
  Hlts_sched.Schedule.t ->
  Hlts_dfg.Dfg.value list ->
  interval list
(** {!interval_of} of each value, in order, taking the schedule's length
    (a fold over the whole schedule) once rather than per value. *)

val occupancy : Hlts_dfg.Dfg.t -> int array -> int * int
(** [occupancy dfg steps] is [(total, length)] when the op at position
    [i] of [dfg.ops] runs at step [steps.(i)]: [total] is the register
    occupancy, the sum of [death - birth] over {!of_schedule} of that
    schedule, and [length] is the highest step. One pass over the value
    rows. *)

val of_steps : Hlts_dfg.Dfg.t -> length:int -> int array -> interval array
(** [of_steps dfg ~length steps] is the lifetime of every value, in
    {!Hlts_dfg.Dfg.values} order, when the op at position [i] of
    [dfg.ops] runs at step [steps.(i)] and the schedule is [length]
    steps long: {!of_schedule}'s intervals, read off one array. *)

val overlap : interval -> interval -> bool

val disjoint_set : interval list -> bool
(** True iff the intervals are pairwise non-overlapping. *)
