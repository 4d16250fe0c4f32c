module Dfg = Hlts_dfg.Dfg
module Schedule = Hlts_sched.Schedule

type interval = {
  birth : int;
  death : int;
}

(* The interval rule, from the steps that decide it. [def] is the
   defining op's step, or [-1] for a primary input, which is loaded from
   its port just before its first read ([first_read], [max_int] when
   nothing reads it: an unread input is loaded at the schedule's end),
   so several staged inputs can share one register. [last_read] is the
   latest reading step, [0] when nothing reads the value. *)
let interval ~length ~def ~first_read ~last_read ~output =
  let def = if def < 0 then min first_read (length + 1) - 1 else def in
  let birth = def + 1 in
  let last_read = max last_read def in
  (* outputs have a virtual final read *)
  let last_read = if output then max last_read (length + 1) else last_read in
  (* A value with no reader still occupies its register for one step. *)
  { birth; death = max (last_read + 1) (birth + 1) }

(* [length] is the schedule's length, a fold over the schedule: callers
   asking for several values take it once ([intervals_of]). *)
let interval_core dfg sched ~length v =
  let reads = List.map (Schedule.step sched) (Dfg.uses_of_value dfg v) in
  interval ~length
    ~def:
      (match v with Dfg.V_input _ -> -1 | Dfg.V_op id -> Schedule.step sched id)
    ~first_read:(List.fold_left Int.min max_int reads)
    ~last_read:(List.fold_left Int.max 0 reads)
    ~output:(Dfg.is_output dfg v)

let interval_of dfg sched v =
  interval_core dfg sched ~length:(Schedule.length sched) v

let intervals_of dfg sched values =
  let length = Schedule.length sched in
  List.map (interval_core dfg sched ~length) values

let of_schedule dfg sched =
  let values = Dfg.values dfg in
  List.combine values (intervals_of dfg sched values)

(* The interval of one value row when the op at position [i] runs at
   step [steps.(i)]. *)
let of_row ~length steps (row : Dfg.value_row) =
  let reads = row.reader_pos in
  interval ~length
    ~def:(if row.def_pos < 0 then -1 else steps.(row.def_pos))
    ~first_read:(List.fold_left (fun acc p -> min acc steps.(p)) max_int reads)
    ~last_read:(List.fold_left (fun acc p -> max acc steps.(p)) 0 reads)
    ~output:row.output

let of_steps dfg ~length steps =
  Array.of_list (List.map (of_row ~length steps) (Dfg.value_rows dfg))

let occupancy dfg steps =
  let length = Array.fold_left Int.max 0 steps in
  let add total row =
    let iv = of_row ~length steps row in
    total + (iv.death - iv.birth)
  in
  (List.fold_left add 0 (Dfg.value_rows dfg), length)

let overlap a b = a.birth < b.death && b.birth < a.death

let disjoint_set intervals =
  let sorted = List.sort (fun a b -> compare (a.birth, a.death) (b.birth, b.death)) intervals in
  let rec check = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.death <= b.birth && check rest
  in
  check sorted
