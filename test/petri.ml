type place = {
  p_id : int;
  p_name : string;
  p_delay : int;
}

type transition = {
  t_id : int;
  t_name : string;
  t_in : int list;
  t_out : int list;
}

type t = {
  places : (int, place) Hashtbl.t;
  transitions : (int, transition) Hashtbl.t;
  initial : int list;
  outgoing : (int, int list) Hashtbl.t;  (* place id -> transitions reading it *)
}

let make ~places ~transitions ~initial =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let ptbl = Hashtbl.create 16 and ttbl = Hashtbl.create 16 in
  let outgoing = Hashtbl.create 16 in
  let rec add_places = function
    | [] -> Ok ()
    | p :: rest ->
      if Hashtbl.mem ptbl p.p_id then err "duplicate place %d" p.p_id
      else if p.p_delay < 0 then err "negative delay on place %d" p.p_id
      else begin
        Hashtbl.add ptbl p.p_id p;
        add_places rest
      end
  in
  let rec add_transitions = function
    | [] -> Ok ()
    | tr :: rest ->
      if Hashtbl.mem ttbl tr.t_id then err "duplicate transition %d" tr.t_id
      else if tr.t_in = [] then err "transition %d has no inputs" tr.t_id
      else begin
        match
          List.find_opt (fun p -> not (Hashtbl.mem ptbl p)) (tr.t_in @ tr.t_out)
        with
        | Some p -> err "transition %d references unknown place %d" tr.t_id p
        | None ->
          Hashtbl.add ttbl tr.t_id tr;
          let record p =
            let old = Option.value ~default:[] (Hashtbl.find_opt outgoing p) in
            Hashtbl.replace outgoing p (tr.t_id :: old)
          in
          List.iter record tr.t_in;
          add_transitions rest
      end
  in
  match add_places places with
  | Error _ as e -> e
  | Ok () ->
    (match add_transitions transitions with
    | Error _ as e -> e
    | Ok () ->
      if initial = [] then err "empty initial marking"
      else if List.exists (fun p -> not (Hashtbl.mem ptbl p)) initial then
        err "initial marking references unknown place"
      else Ok { places = ptbl; transitions = ttbl; initial; outgoing })

let make_exn ~places ~transitions ~initial =
  match make ~places ~transitions ~initial with
  | Ok t -> t
  | Error msg -> invalid_arg ("Petri.make: " ^ msg)

let place t id = Hashtbl.find t.places id

let final_places t =
  let is_final id =
    match Hashtbl.find_opt t.outgoing id with
    | None | Some [] -> true
    | Some (_ :: _) -> false
  in
  List.sort compare
    (Hashtbl.fold
       (fun id _ acc -> if is_final id then id :: acc else acc)
       t.places [])

exception Bounded

type path = {
  total_time : int;
  steps : (int * int) list;
  tree_nodes : int;
}

(* A marking maps marked places to the time their token becomes available.
   Kept as a sorted association list so it can serve as a memo key. *)
type marking = (int * int) list

let initial_marking t : marking =
  let avail id = (id, (place t id).p_delay) in
  List.sort compare (List.map avail t.initial)

let enabled t (m : marking) =
  let marked = List.map fst m in
  let ok tr = List.for_all (fun p -> List.mem p marked) tr.t_in in
  List.sort compare
    (Hashtbl.fold
       (fun id tr acc -> if ok tr then id :: acc else acc)
       t.transitions [])

let fire t (m : marking) tr_id : marking * int =
  let tr = Hashtbl.find t.transitions tr_id in
  let fire_time =
    List.fold_left (fun acc p -> max acc (List.assoc p m)) 0 tr.t_in
  in
  let without_inputs = List.filter (fun (p, _) -> not (List.mem p tr.t_in)) m in
  let add_out m p =
    let avail = fire_time + (place t p).p_delay in
    (* A place already marked keeps the later token (worst case). *)
    match List.assoc_opt p m with
    | Some old when old >= avail -> m
    | Some _ -> (p, avail) :: List.remove_assoc p m
    | None -> (p, avail) :: m
  in
  (List.sort compare (List.fold_left add_out without_inputs tr.t_out), fire_time)

let marking_time (m : marking) = List.fold_left (fun acc (_, a) -> max acc a) 0 m

let critical_path ?(max_nodes = 200_000) t =
  let visited : (marking, unit) Hashtbl.t = Hashtbl.create 256 in
  let nodes = ref 0 in
  let best_time = ref 0 in
  let best_steps = ref [] in
  (* Depth-first exploration of the reachability tree; [steps] accumulates
     the firing sequence leading to the current marking (reversed). *)
  let rec explore m steps =
    incr nodes;
    if !nodes > max_nodes then raise Bounded;
    if not (Hashtbl.mem visited m) then begin
      Hashtbl.add visited m ();
      match enabled t m with
      | [] ->
        let time = marking_time m in
        if time >= !best_time then begin
          best_time := time;
          best_steps := steps
        end
      | trs ->
        let step tr_id =
          let m', fire_time = fire t m tr_id in
          explore m' ((tr_id, fire_time) :: steps)
        in
        List.iter step trs
    end
  in
  let m0 = initial_marking t in
  best_time := marking_time m0;
  explore m0 [];
  { total_time = !best_time; steps = List.rev !best_steps; tree_nodes = !nodes }

let execution_time ?max_nodes t = (critical_path ?max_nodes t).total_time

let chain ?(step_delay = 1) n =
  assert (n >= 0);
  let start = { p_id = 0; p_name = "start"; p_delay = 0 } in
  let step i =
    { p_id = i; p_name = Printf.sprintf "s%d" i; p_delay = step_delay }
  in
  let places = start :: List.init n (fun i -> step (i + 1)) in
  let trans i =
    { t_id = i + 1; t_name = Printf.sprintf "t%d" (i + 1);
      t_in = [ i ]; t_out = [ i + 1 ] }
  in
  make_exn ~places ~transitions:(List.init n trans) ~initial:[ 0 ]

let control_unrolled steps ~iterations =
  assert (iterations >= 1);
  (* places: 0 = start; iteration i (0-based), step s (1-based) =
     1 + i*steps + (s-1); done place = 1 + iterations*steps *)
  let place_id i s = 1 + (i * steps) + (s - 1) in
  let done_id = 1 + (iterations * steps) in
  let places =
    { p_id = 0; p_name = "start"; p_delay = 0 }
    :: { p_id = done_id; p_name = "done"; p_delay = 0 }
    :: List.concat
         (List.init iterations (fun i ->
              List.init steps (fun s ->
                  {
                    p_id = place_id i (s + 1);
                    p_name = Printf.sprintf "it%d_s%d" i (s + 1);
                    p_delay = 1;
                  })))
  in
  let transitions = ref [] in
  let next_t = ref 0 in
  let trans name t_in t_out =
    incr next_t;
    transitions := { t_id = !next_t; t_name = name; t_in; t_out } :: !transitions
  in
  for i = 0 to iterations - 1 do
    let first = place_id i 1 in
    (if i = 0 then trans "enter" [ 0 ] [ first ]);
    for s = 1 to steps - 1 do
      trans
        (Printf.sprintf "it%d_t%d" i s)
        [ place_id i s ]
        [ place_id i (s + 1) ]
    done;
    let last = place_id i steps in
    (* conditional choice: exit the loop, or start the next iteration *)
    trans (Printf.sprintf "exit%d" i) [ last ] [ done_id ];
    if i + 1 < iterations then
      trans (Printf.sprintf "repeat%d" i) [ last ] [ place_id (i + 1) 1 ]
  done;
  make_exn ~places ~transitions:(List.rev !transitions) ~initial:[ 0 ]
