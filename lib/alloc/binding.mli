(** Data-path allocation state: the partition of storage values into
    registers and of operations into functional units (modules).

    The synthesis engine starts from {!default} — the VHDL compiler's
    default allocation with one data-path node per operation instance and
    per value — and compacts it by merger transformations. The classic
    separate-step flows build it directly with {!left_edge} and
    {!bind_modules}. *)

type register = {
  reg_id : int;
  reg_values : Hlts_dfg.Dfg.value list;  (** values stored, def order *)
}

type fu = {
  fu_id : int;
  fu_class : Hlts_dfg.Op.fu_class;
  fu_ops : int list;  (** operation ids, schedule order *)
}

type t = {
  registers : register list;
  fus : fu list;
}

val default : Hlts_dfg.Dfg.t -> t
(** One register per value, one unit (of the cheapest class) per
    operation. *)

val left_edge :
  ?prefer_io:bool ->
  Hlts_dfg.Dfg.t ->
  Hlts_sched.Schedule.t ->
  register list
(** Left-edge register allocation over value lifetimes. With [prefer_io]
    (Lee's allocation rule 1, default false) primary-input and
    primary-output values seed the registers so every register holds at
    least one I/O variable where possible. *)

val bind_modules : Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> fu list
(** Greedy module binding: operations in schedule order enter the first
    unit that supports the combined operation set and has no operation in
    the same control step; otherwise a new unit is opened. *)

val allocate :
  ?prefer_io:bool -> Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> t
(** {!left_edge} + {!bind_modules}. *)

val reg_of_value : t -> Hlts_dfg.Dfg.value -> register
(** @raise Not_found if the value is unallocated. *)

val fu_of_op : t -> int -> fu
(** @raise Not_found if the operation is unbound. *)

val validate :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> t -> (unit, string) result
(** Checks the partition laws and the sharing constraints of §4.1: every
    value in exactly one register with pairwise-disjoint lifetimes; every
    operation in exactly one unit whose class supports all its operations,
    scheduled in pairwise-distinct steps. The first failing check, in
    that order (values, operations, registers, units), is the error. *)

val pp : Hlts_dfg.Dfg.t -> Format.formatter -> t -> unit
(** Paper-style listing: "(+): N25, N36 / R: u, u1, e". *)
