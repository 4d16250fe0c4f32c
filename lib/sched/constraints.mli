(** Precedence constraints for scheduling: the data dependencies of a DFG
    plus extra ordering arcs imposed by data-path synthesis (module and
    register mergers, §4.1 of the paper). An arc (a, b) forces
    [step a < step b].

    The representation is persistent and maintains a transitively-closed
    reachability index, so {!reachable}, {!would_cycle}, {!known} and
    {!is_acyclic} are O(1) bit tests; {!add_arc} pays a bounded closure
    update (copy-on-write over the rows whose reachable set grows), and
    constraint sets branched off a common ancestor share structure.
    {!levels} reads a set's ASAP schedule off the shared dense adjacency
    in one pass, with no {!Schedule.t} built: the merge engine's SR2
    trials call it twice per head-to-head decision. *)

type t

val of_dfg : Hlts_dfg.Dfg.t -> t
(** Data dependencies only. Builds the id index, the base adjacency and
    the initial reachability closure once; they are shared by every
    constraint set derived from this one. *)

val dfg : t -> Hlts_dfg.Dfg.t

val add_arc : t -> int -> int -> t
(** [add_arc t a b] adds the ordering arc (a, b); idempotent.
    @raise Invalid_argument if either id is not an operation of the DFG. *)

val extra_arcs : t -> (int * int) list
(** The added arcs (without data dependencies), in ascending
    lexicographic [(a, b)] order — first by tail id, then by head id.
    Clients (state consistency checks, tests) rely on this ordering
    being stable and independent of insertion order. *)

val preds : t -> int -> int list
(** All predecessors of an operation (data + extra), sorted. *)

val succs : t -> int -> int list

val is_acyclic : t -> bool

val levels : t -> int array option
(** The ASAP step of every operation — one past its latest data or
    extra predecessor — indexed by its position in [(dfg t).ops]; [None]
    iff the set is cyclic. Computed afresh on every call, so the caller
    owns the array. *)

val would_cycle : t -> int -> int -> bool
(** [would_cycle t a b]: does adding arc (a, b) close a cycle — i.e. is
    [a] reachable from [b]? *)

val reachable : t -> int -> int -> bool
(** [reachable t a b]: is there a constraint path from [a] to [b]?
    Reflexive ([reachable t a a] holds) and O(1): one bit test against
    the maintained closure. *)

val known : t -> int -> bool
(** [known t id]: is [id] an operation of the underlying DFG? *)

