module Dfg = Hlts_dfg.Dfg

let ids_of cons = List.map (fun o -> o.Dfg.id) (Constraints.dfg cons).Dfg.ops

let asap cons =
  Hlts_obs.span ~cat:"reschedule" "sched.asap" @@ fun _ ->
  match Constraints.levels cons with
  | None -> Error "cyclic constraints"
  | Some levels ->
    Ok
      (Schedule.of_assoc (List.mapi (fun i id -> (id, levels.(i))) (ids_of cons)))

let asap_exn cons =
  match asap cons with
  | Ok s -> s
  | Error msg -> invalid_arg ("Basic.asap: " ^ msg)

let alap cons ~latency =
  Hlts_obs.span ~cat:"reschedule" "sched.alap" @@ fun _ ->
  match asap cons with
  | Error _ as e -> e
  | Ok early ->
    if Schedule.length early > latency then
      Error
        (Printf.sprintf "latency %d below critical path %d" latency
           (Schedule.length early))
    else begin
      let steps = Hashtbl.create 16 in
      let rec step_of id =
        match Hashtbl.find_opt steps id with
        | Some s -> s
        | None ->
          let s =
            match Constraints.succs cons id with
            | [] -> latency
            | succs ->
              List.fold_left (fun acc s' -> min acc (step_of s' - 1)) max_int succs
          in
          Hashtbl.replace steps id s;
          s
      in
      Ok (Schedule.of_assoc (List.map (fun id -> (id, step_of id)) (ids_of cons)))
    end

let mobility cons ~latency =
  Hlts_obs.count "sched.mobility_recomputes";
  let early = asap_exn cons in
  match alap cons ~latency with
  | Error msg -> invalid_arg ("Basic.mobility: " ^ msg)
  | Ok late ->
    List.map
      (fun id -> (id, Schedule.step late id - Schedule.step early id))
      (ids_of cons)
