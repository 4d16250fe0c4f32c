(** The schedule-free part of an ETPN: the data-path graph of a binding.

    Registers, functional units, ports and constants, and the distinct
    [(src, dst, port)] transfers between them, are functions of (DFG,
    binding) alone; only the arcs' guards need the schedule. Every
    estimator of a merge attempt reads only this part — the floorplanner
    (H), the testability analysis and candidate scoring — so a merge
    attempt builds this view and never an {!Etpn.t}. {!Etpn.build}
    builds the same view and adds the guards and the control part on
    top of it, so the two cannot disagree. *)

type port =
  | P_left
  | P_right

type node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int        (** condition signal of comparison op [id] *)
  | Const of int
  | Reg of Hlts_alloc.Binding.register
  | Fu of Hlts_alloc.Binding.fu

(** Why an arc is active: what the ETPN turns into its guards. *)
type transfer =
  | Load of string   (** input port to register, one step before the
                         input's first use *)
  | Exec of int      (** operand or result transfer of operation [id],
                         in its control step *)
  | Emit             (** register to output port, after the last step *)
  | Always           (** a test point, active in every control step *)

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;         (** destination port of a unit input *)
  a_transfers : transfer list;  (** every transfer the arc carries *)
}

type t
(** Node ids are dense from 0, numbered registers first (binding order),
    then units, input ports, constants and condition outputs as the
    operations first need them, then output ports. Arcs are distinct in
    [(src, dst, port)] and keep one fixed order. *)

val build : Hlts_dfg.Dfg.t -> Hlts_alloc.Binding.t -> t
(** The data path of a binding. Unchecked: the caller has validated the
    binding against the DFG (see {!Hlts_alloc.Binding.validate}).
    @raise Not_found if a value or an operation is unbound. *)

val size : t -> int
(** Number of nodes; ids run from 0 to [size t - 1]. *)

val arcs : t -> arc list

(** The lookups below are O(1) reads of tables built with the view. *)

val node : t -> int -> node
(** @raise Not_found if no node has the id. *)

val in_arcs : t -> int -> arc list
(** Arcs into the node, in {!arcs} order; [[]] for an unknown id. *)

val out_arcs : t -> int -> arc list
(** Arcs out of the node, in {!arcs} order; [[]] for an unknown id. *)

val node_id_of_reg : t -> int -> int
(** Node id of register [reg_id] (the first, should a binding repeat
    it). @raise Not_found if no register node has the id. *)

val node_id_of_fu : t -> int -> int

val add_observation_point : t -> reg_id:int -> t
(** Adds an output port ["tp_r<reg_id>"] fed by the register, carrying
    an {!constructor-Always} transfer: the next node id and the last
    arc. @raise Not_found if no register node has the id. *)
