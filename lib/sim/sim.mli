(** Levelized compiled logic simulation, 64 patterns in parallel.

    The netlist's combinational core (sources: primary inputs, constants,
    DFF Q nets; sinks: primary outputs, DFF D nets) is levelized once;
    evaluation then sweeps the gate array in order over [int64] words —
    bit lane [i] of every word belongs to pattern/sequence [i], so 64
    independent test sequences advance together through sequential
    {!step}s. Faults are injected by forcing a net's word after its
    driver writes it (or before evaluation for PI/Q/constant nets).

    {!compile} also builds the indexes from which each net's output
    cone — the levelized gate sub-array and primary outputs a fault
    effect can reach, closed under sequential feedback — is derived
    (lazily, memoized) by {!cone}; PODEM restricts its faulty plane to
    it. {!record} runs the good machine over a stimuli batch once, and
    {!Ppsfp} grades whole fault lists against that {!trajectory}. The
    per-fault full-sweep reference the property tests hold {!Ppsfp}
    against lives in the test suite ([test/oracle.ml]), built from this
    public API alone. *)

type t

val compile : Hlts_netlist.Netlist.t -> t
(** Levelizes and builds the compact gate encoding, fanout and
    driver/DFF indexes. @raise Invalid_argument on a combinational cycle
    (cannot happen for netlists from {!Hlts_netlist.Expand}). *)

val circuit : t -> Hlts_netlist.Netlist.t

(** {2 Compact compiled form}

    Struct-of-arrays view of the levelized gate order, shared by every
    sweeping engine (good simulation, PPSFP, PODEM) so they all
    evaluate gates identically. [kind] holds the codes below; [in1] and
    [in2] are [-1] where the arity does not use them ([in0] = select for
    mux2). *)

type ops = {
  n_gates : int;
  kind : int array;
  in0 : int array;
  in1 : int array;
  in2 : int array;
  out : int array;
}

val k_and : int
val k_or : int
val k_nand : int
val k_nor : int
val k_xor : int
val k_xnor : int
val k_not : int
val k_buf : int
val k_mux2 : int

val ops : t -> ops

val po_nets : t -> int array
(** All primary-output nets, bus order. *)

val pi_nets : t -> int array
(** All primary-input nets, bus order. *)

val driver_index : t -> int array
(** net -> levelized gate index of its driver, or -1 (PI/Q/const). *)

val dff_of_q : t -> int array
(** net -> dff id whose Q output it is, or -1. *)

val fanout_gates : t -> int array * int array
(** CSR [(idx, gates)]: the levelized gate indexes reading net [n] are
    [gates.(idx.(n)) .. gates.(idx.(n+1) - 1)]. *)

val fanout_dffs : t -> int array * int array
(** CSR [(idx, dffs)]: the dff ids reading net [n] as their D input. *)

(** {2 Output cones} *)

type cone
(** The sequential output cone of one net: every gate, flip-flop and
    primary output a stuck-at fault on that net can ever influence,
    closed under DFF feedback across clock cycles. Built on first use
    and memoized inside {!t}; each construction records its gate count
    on the ["sim.cone_gates"] observability histogram. *)

val cone : t -> int -> cone

val cone_gates : cone -> int array
(** Cone gates as indexes into the levelized order, ascending — a
    subsequence of the full sweep. *)

val cone_pos : cone -> int array
(** The primary-output nets inside the cone — the only POs a fault on
    this net can ever flip. *)

val cone_bits : cone -> Bytes.t
(** Bitset over nets (bit [net land 7] of byte [net lsr 3]): can this
    net carry the fault effect? (the site itself, a cone DFF's Q, or a
    cone gate's output). Do not mutate. *)

val cone_dffs : cone -> int array
(** The flip-flops whose Q net is in the cone, by id, ascending: with
    the site, the only sources a fault effect can start from in a
    clock cycle. *)

type machine = {
  values : int64 array;       (** current net words, indexed by net id *)
  state : int64 array;        (** DFF state, indexed by dff id *)
}

val machine : t -> machine
(** Fresh machine with all-zero state. *)

val set_bus : t -> machine -> string -> int64 list -> unit
(** Drives a PI bus with one word per net (LSB first).
    @raise Not_found on unknown bus. *)

val eval : ?fault:Hlts_fault.Fault.t -> t -> machine -> unit
(** One combinational evaluation: loads constants and DFF state, sweeps
    the gates, applies the fault override. PI words must have been set
    with {!set_bus} (they persist across calls). *)

val step : t -> machine -> unit
(** Clock edge: latches every DFF's D value into the state. Call after
    {!eval}. *)

val read_bus : t -> machine -> string -> int64 list
(** PO bus words. *)

val po_diff : t -> machine -> machine -> int64
(** Lanes (bits) where any PO net differs between two machines. *)

val gate_count : t -> int

val levelized : t -> Hlts_netlist.Netlist.gate array
(** The gates in evaluation (topological) order — shared by the PODEM
    engine so both simulators sweep identically. *)

(** {2 Recorded good trajectory} *)

type trajectory
(** One good-machine run over a stimuli batch, with the full net-value
    word array snapshotted after every evaluation — the baseline fault
    grading diffs against. *)

val record : t -> (int * int64) list array -> trajectory
(** [record t stimuli] runs a fresh good machine over the per-cycle
    (net, word) assignments and snapshots the net values each cycle.
    Every primary input should be assigned each cycle (unassigned nets
    read as the previous cycle's word, 0 initially). *)

val trajectory_cycles : trajectory -> int
val trajectory_stimuli : trajectory -> (int * int64) list array
val trajectory_values : trajectory -> int -> int64 array
(** Post-evaluation net words of one cycle. Do not mutate. *)
