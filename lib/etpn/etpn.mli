(** Extended Timed Petri Net (ETPN) design representation
    (Peng & Kuchcinski 1994).

    The data path is a directed graph whose vertices are registers,
    functional units, ports and constants, and whose arcs are guarded by
    control states: an arc labelled with control step [s] transfers data
    while the control token is in step [s]. In the paper the control part
    is a timed Petri net and E is its critical path. Here the control part
    is implicit: it is always the chain of the schedule's steps, so the
    guards are the schedule itself and E is [Schedule.length]. Conditions
    produced by comparison units leave the data path through
    {!constructor-Cond_out} vertices.

    An ETPN is deterministic given (DFG, schedule, binding); {!build}
    constructs and checks it. Its nodes and unguarded arcs are the
    {!Datapath} view of (DFG, binding), which {!build} constructs once
    and carries; estimators that need no guards read that view. *)

type port = Datapath.port =
  | P_left
  | P_right

type node = Datapath.node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int        (** condition signal of comparison op [id] *)
  | Const of int
  | Reg of Hlts_alloc.Binding.register
  | Fu of Hlts_alloc.Binding.fu

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;    (** destination port for functional-unit inputs *)
  a_guards : int list;     (** activating control steps, ascending;
                               step 0 = input loading, length+1 = output *)
}

type index
(** Per-node in-arc and out-arc tables behind {!in_arcs} and
    {!out_arcs}, built with the record. *)

type t = private {
  dfg : Hlts_dfg.Dfg.t;
  schedule : Hlts_sched.Schedule.t;
  binding : Hlts_alloc.Binding.t;
  datapath : Datapath.t;       (** the nodes and unguarded arcs *)
  nodes : (int * node) list;   (** ascending node id, dense from 0 *)
  arcs : arc list;             (** [Datapath.arcs datapath], guarded *)
  index : index;
}
(** Private: only {!build} and {!add_observation_point} construct one,
    so [datapath], [nodes], [arcs] and the index always agree. *)

val build :
  Hlts_dfg.Dfg.t ->
  Hlts_sched.Schedule.t ->
  Hlts_alloc.Binding.t ->
  (t, string) result
(** Validates the schedule against the DFG and the binding against both
    (via {!Hlts_alloc.Binding.validate}), then builds the {!Datapath}
    view and guards its arcs from the schedule. *)

val build_exn :
  Hlts_dfg.Dfg.t -> Hlts_sched.Schedule.t -> Hlts_alloc.Binding.t -> t

val datapath : t -> Datapath.t

(** The lookups below are O(1) reads of the record's tables. *)

val node : t -> int -> node
(** @raise Not_found if no node has the id. *)

val node_id_of_reg : t -> int -> int
(** Node id of register [reg_id] (the first, should a binding repeat
    it). @raise Not_found if no register node has the id. *)

val node_id_of_fu : t -> int -> int

val in_arcs : t -> int -> arc list
(** Arcs into the node, in [arcs] order. *)

val out_arcs : t -> int -> arc list
(** Arcs out of the node, in [arcs] order. *)

(** Structural metrics of the data path. *)
type stats = {
  n_registers : int;
  n_fus : int;
  n_mux_units : int;   (** destinations fed by more than one source *)
  n_mux_slices : int;  (** total 2-to-1 multiplexer slices: sum (fanin-1) *)
  n_self_loops : int;  (** register-unit-same-register structural loops *)
  n_arcs : int;
}

val stats : t -> stats

val interconnect : t -> (int * int) list
(** {!Datapath.interconnect} of the data path. *)

val add_observation_point : t -> reg_id:int -> t
(** Adds a dedicated output port observing a register — a test point.
    The new port is named ["tp_r<k>"] and is active in every control
    step ({!Datapath.add_observation_point}, guarded). Used by the
    test-point-insertion extension. *)

val to_dot : t -> string
(** Graphviz rendering of the data path. *)
