(** Timed Petri net with restricted firing rules — the control part of the
    ETPN design representation (Peng & Kuchcinski 1994), kept as the test
    reference for the synthesis estimate E.

    Places carry a delay: a token entering place [p] at time [t] becomes
    available to output transitions at [t + delay p]. A transition is
    enabled when every input place holds an available token; it fires at
    the earliest such time (restricted firing). Choice (two transitions
    sharing an input place) models conditional control flow; the
    reachability tree explores every branch and the execution time is the
    worst case over branches.

    The minimum execution time of a design equals the length of the
    critical path, detected by building the reachability tree of the net
    and extracting the longest token flow from the initial to the final
    marking, as §4.2 of the paper prescribes. The product's control part
    is always the chain of the schedule's steps ({!chain}), so synthesis
    reads E as the schedule length; the tests hold that equal to this
    net's critical path. *)

type place = {
  p_id : int;
  p_name : string;
  p_delay : int;  (** time a token must spend in this place; >= 0 *)
}

type transition = {
  t_id : int;
  t_name : string;
  t_in : int list;   (** input place ids, non-empty *)
  t_out : int list;  (** output place ids *)
}

type t

val make :
  places:place list ->
  transitions:transition list ->
  initial:int list ->
  (t, string) result
(** Builds and validates a net. Errors on duplicate ids, dangling place
    references, empty transition inputs, or empty initial marking. *)

val make_exn :
  places:place list -> transitions:transition list -> initial:int list -> t

val final_places : t -> int list
(** Places with no outgoing transition — token sinks. *)

exception Bounded
(** Raised when the reachability exploration exceeds its node budget
    (cyclic or pathological nets). *)

type path = {
  total_time : int;           (** critical-path length = execution time E *)
  steps : (int * int) list;   (** (transition id, firing time) along the path *)
  tree_nodes : int;           (** size of the explored reachability tree *)
}

val critical_path : ?max_nodes:int -> t -> path
(** Builds the reachability tree (default budget 200_000 nodes) and
    extracts the critical path. @raise Bounded on budget exhaustion. *)

val execution_time : ?max_nodes:int -> t -> int
(** [total_time] of {!critical_path}. *)

val chain : ?step_delay:int -> int -> t
(** [chain n] is the control net of a straight-line schedule with [n]
    control steps: a chain of [n] places of delay [step_delay] (default 1)
    separated by transitions, with an initial zero-delay start place. Its
    execution time is [n * step_delay]. *)

val control_unrolled : int -> iterations:int -> t
(** [control_unrolled n ~iterations] is the control net of a looping
    design whose body is a schedule of [n] steps (e.g. Diffeq's
    while-loop body), unrolled for a bounded number of iterations: after
    the last step of each iteration a conditional choice either exits or
    enters the next iteration's first step — the condition signal of the
    data path's comparison steers it at run time. Its worst-case
    execution time is [iterations * n], which the critical-path
    extraction must find by exploring every branch. *)
