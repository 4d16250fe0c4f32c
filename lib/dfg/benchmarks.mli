(** The benchmark designs evaluated in the paper.

    The paper's exact source texts are not published, so each design is a
    reconstruction that matches the operation inventory visible in the
    paper's tables (operation kinds and counts, node numbering, value
    naming where recoverable):

    - {!ex}: Lee et al.'s example — 4 multiplications (N21, N22, N24,
      N28), 3 subtractions (N25, N27, N29), 1 addition (N30) over inputs
      a-f, exactly the node ids of Table 1.
    - {!dct}: portion of an 8-point DCT — 6 additions, 2 subtractions,
      5 multiplications with the node ids of Table 2 (N27-N44).
    - {!diffeq}: the HAL differential-equation loop body — 6
      multiplications (N26, N27, N29, N31, N33, N35), 2 subtractions
      (N30, N34), 2 additions (N25, N36), 1 comparison (N24), matching
      Table 3.
    - {!ewf}: fifth-order elliptic wave filter — 26 additions, 8
      multiplications, the classic deep-chain structure.
    - {!paulin}, {!tseng}: the two remaining benchmarks the paper cites.

    Reassignments of behavioral variables are single-assignment-renamed
    (e.g. Ex's second definition of [y] is [y2]). *)

val ex : Dfg.t
val dct : Dfg.t
val diffeq : Dfg.t
val ewf : Dfg.t
val paulin : Dfg.t
val tseng : Dfg.t

val ar : Dfg.t
(** AR lattice filter (16 multiplications, 12 additions) — a standard
    HLS benchmark beyond the paper's set, for wider coverage. *)

val fir : Dfg.t
(** 8-tap FIR filter (8 multiplications, 7 additions). *)

val toy : Dfg.t
(** Three-operation design used by the quickstart example and tests. *)

val random : seed:int -> ops:int -> Dfg.t
(** [random ~seed ~ops] generates a valid synthetic DFG with exactly
    [ops] operations (add/sub/mul mix, operands biased toward recent
    results so the graph grows EWF-like chains). Deterministic: equal
    [(seed, ops)] yield structurally equal DFGs on every platform.
    Unconsumed results become the outputs; the graph is acyclic by
    construction and checked by [Dfg.validate_exn]. Used to benchmark
    synthesis beyond the paper designs' size ceiling.
    @raise Invalid_argument if [ops < 1]. *)

val all : (string * Dfg.t) list
(** All benchmarks keyed by lowercase name, paper benchmarks first. *)

val find : string -> Dfg.t option
(** Case-insensitive lookup in {!all}; also resolves the seeded
    synthetic family by name ([rnd-s<seed>-n<ops>]). *)

val synthetic_ops : string -> int option
(** [Some ops] when the name is in the [rnd-s<seed>-n<ops>] family
    (case-insensitive), read off the name without generating the
    design, so a caller can refuse an oversized one first. *)

val names : string list
(** The names {!find} resolves directly (the keys of {!all}), in listing
    order — not including the open-ended [rnd-s<seed>-n<ops>] family. *)

val find_result : string -> (Dfg.t, string) result
(** {!find} with a diagnosable failure: the error message lists every
    available name and describes the [rnd-s<seed>-n<ops>] scheme (and
    pinpoints a malformed [rnd-] request, e.g. [ops < 1]). *)
