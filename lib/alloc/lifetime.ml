module Dfg = Hlts_dfg.Dfg
module Schedule = Hlts_sched.Schedule

type interval = {
  birth : int;
  death : int;
}

(* Core interval computation. [length] is the schedule's length, taken
   once per pass by the whole-design callers ([of_schedule],
   [occupancy]): it is a fold over the schedule, and inputs and outputs
   each need it. *)
let interval_core dfg sched ~length v =
  let uses = Dfg.uses_of_value dfg v in
  let def_step =
    match v with
    | Dfg.V_input _ ->
      (* inputs are loaded from their port just before their first use, so
         several staged inputs can share one register *)
      let first_use =
        List.fold_left
          (fun acc use -> min acc (Schedule.step sched use))
          (length + 1) uses
      in
      first_use - 1
    | Dfg.V_op id -> Schedule.step sched id
  in
  let birth = def_step + 1 in
  let uses = List.map (Schedule.step sched) uses in
  let uses = if Dfg.is_output dfg v then (length + 1) :: uses else uses in
  let last_use = List.fold_left max def_step uses in
  (* A value with no reader still occupies its register for one step. *)
  { birth; death = max (last_use + 1) (birth + 1) }

let interval_of dfg sched v =
  interval_core dfg sched ~length:(Schedule.length sched) v

let of_schedule dfg sched =
  let length = Schedule.length sched in
  List.map (fun v -> (v, interval_core dfg sched ~length v)) (Dfg.values dfg)

let occupancy dfg sched =
  let length = Schedule.length sched in
  List.fold_left
    (fun acc v ->
      let iv = interval_core dfg sched ~length v in
      acc + (iv.death - iv.birth))
    0 (Dfg.values dfg)

let overlap a b = a.birth < b.death && b.birth < a.death

let disjoint_set intervals =
  let sorted = List.sort (fun a b -> compare (a.birth, a.death) (b.birth, b.death)) intervals in
  let rec check = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.death <= b.birth && check rest
  in
  check sorted
