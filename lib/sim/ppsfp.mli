(** Word-parallel (PPSFP-style) fault grading: the good machine plus up
    to 62 faulty machines packed into one native [int] word per net.

    Where {!Sim.eval} simulates one machine over 64 test sequences at a
    time (pattern-parallel, single-fault), this engine transposes the
    packing: one plane word per net whose bit 0 is the good machine and
    whose bits [1 .. Sys.int_size - 2] each carry a complete
    independent faulty machine, so a single sweep over a test sequence
    retires a whole word of faults. Per-gate word operations are the
    same AND/OR/NAND/NOR/XOR/XNOR/NOT/BUF/MUX2 codes as {!Sim.ops};
    stuck-at faults are injected through per-net masks after the site's
    driver writes it: [(v land (lnot mask)) lor value_mask], where
    [mask] holds the lanes faulted at that net and [value_mask] their
    stuck-at-1 lanes — bit 0 is never in a mask, so the good machine is
    untouched.

    Grading a fault list against a recorded {!Sim.trajectory}:

    - {!plan} packs the faults into words of at most
      {!max_faults_per_word} lanes, grouped by overlapping output cones
      (sorted by the levelized position of the first cone gate) so each
      word's sweep is restricted to the {e union} of its member cones —
      every net outside the union provably carries the good value in
      every lane, and is loaded per cycle as a broadcast of the
      recorded good bit. With [~collapse], faults with the same
      equivalence-class representative ({!Hlts_fault.Fault.collapse_map})
      share a single bit lane and the lane's verdict fans back out to
      every member.
    - {!batch} dedupes the trajectory's 64 pattern lanes: lanes with
      identical stimulus columns (e.g. the all-zero tail of a packed
      deterministic-test batch) are simulated once through a class
      representative, and lanes outside [mask] are never simulated.
    - {!grade_words} sweeps every word over every (pattern-lane class x
      cycle), with two early exits: a lane stops as soon as every fault
      lane has produced its first PO miscompare, and a whole cycle is
      skipped when the faulty state still equals the good state and
      every injection site's good bit already equals its stuck lanes
      (the injection would be a no-op, so the whole cycle provably
      equals the good run).

    Determinism: the result for each fault is the same
    [(first miscompare cycle, lane-diff word land mask)] option that a
    per-fault full sweep from a zeroed machine returns, re-serialized in
    input fault order — word packing, lane assignment and batching order
    are invisible. Property-tested in [test/test_ppsfp.ml] against that
    reference ([test/oracle.ml]) on random netlists and on real data
    paths.

    Observability: each simulated word counts on ["sim.words_simulated"]
    and records its lane occupancy on the ["sim.faults_per_word"]
    histogram; skipped quiet cycles count on ["sim.ppsfp_quiet_cycles"]
    and per-(word x pattern-class) sweeps on ["sim.ppsfp_lane_sweeps"]. *)

type t
(** Reusable word-plane scratch (net planes, faulty DFF state,
    injection masks, generation-stamped union marks) over one compiled
    {!Sim.t}. Grading allocates nothing per fault beyond the plan. *)

val create : Sim.t -> t

val sim : t -> Sim.t

val max_faults_per_word : int
(** Fault lanes per word: [Sys.int_size - 1] (62 on 64-bit hosts) —
    bit 0 is reserved for the good machine. *)

type plan
(** Faults packed into words: per word the lane assignments (with the
    original input indices each lane fans out to), the per-net
    injection masks, and the cone-union gate/DFF/PO/support index
    arrays the sweep is restricted to. *)

val plan :
  ?collapse:(Hlts_fault.Fault.t -> Hlts_fault.Fault.t) ->
  t -> Hlts_fault.Fault.t list -> plan
(** [collapse] maps each fault to its equivalence-class representative
    (default: identity); faults with equal representatives share one
    bit lane. Packing order is deterministic: representatives sorted by
    (first cone gate, net, stuck polarity), chunked in order. *)

val words : plan -> int
val fault_count : plan -> int

type batch
(** One trajectory prepared for grading under a lane mask: the
    deduplicated pattern-lane classes (class representative to
    simulate, masked member-lane word to report). *)

val batch : ?mask:int64 -> t -> Sim.trajectory -> batch

val grade_word :
  t -> plan -> batch -> int -> (int * int64) option array
(** [grade_word t plan batch w] simulates word [w] and returns one
    [(cycle, lane-diff word)] verdict per fault lane (length = the
    word's lane count). Mutates only [t]'s scratch, so words can be
    fanned out over pool lanes that each own a [t]. *)

val grade_words :
  ?map:
    ((int -> (int * int64) option array) ->
     int list ->
     (int * int64) option array list) ->
  t -> plan -> batch -> (int * int64) option array
(** Grades every word of the plan and scatters the lane verdicts back
    to the original fault positions: result [i] is fault [i]'s verdict,
    bit-identical to a full sweep of that fault alone. [map]
    (default: serial [List.map] over word indexes) lets the caller run
    the word grading on a worker pool — results are merged in word
    order, so the output does not depend on the mapping strategy. *)

val grade :
  ?mask:int64 ->
  ?collapse:(Hlts_fault.Fault.t -> Hlts_fault.Fault.t) ->
  t -> Sim.trajectory -> Hlts_fault.Fault.t list ->
  (int * int64) option array
(** [plan] + [batch] + [grade_words] in one serial call. *)
