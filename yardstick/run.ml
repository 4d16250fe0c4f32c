(* The workload table and one run of one workload: metrics printed by
   name with their units, the result line last. *)

open Measure

type workload = {
  name : string;
  run :
    scale:scale ->
    seed:int ->
    seconds:float ->
    traced:bool ->
    trace_out:(string -> unit) option ->
    unit ->
    result;
}

let all =
  [
    {
      name = "tables-cold";
      run =
        (fun ~scale ~seed ~seconds ~traced ~trace_out () ->
          Inproc.tables ~scale ~seed ~seconds ~traced ~trace_out ());
    };
    { name = "synth-scale"; run = Inproc.synth };
    { name = "serve-hot"; run = Served.hot };
    { name = "serve-mixed"; run = Served.mixed };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* Returns whether every correctness check passed. *)
let main w ~seed ~seconds ~traced ~trace_file ~record =
  let host = Measure.host () in
  let trace_oc = Option.map open_out trace_file in
  let r =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out trace_oc)
      (fun () ->
        w.run ~scale:Full ~seed ~seconds ~traced
          ~trace_out:(Option.map output_string trace_oc)
          ())
  in
  List.iteri
    (fun i f -> if i < 20 then prerr_endline ("check failed: " ^ f))
    r.failures;
  let json = result_json ~traced r in
  (match Json.member "metrics" json with
  | Some (Json.Obj ms) ->
    List.iter
      (fun (name, v) ->
        match (Json.member "value" v, Json.member "unit" v) with
        | Some value, Some (Json.Str unit) ->
          Printf.printf "%-34s %16s %s\n" name (Json.to_string value) unit
        | _ -> ())
      ms
  | _ -> ());
  Option.iter
    (fun path ->
      append_line path
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str w.name);
                ("seed", Json.Int seed);
                ("seconds", Json.Float seconds);
                ("trace", Json.Int (if traced then 1 else 0));
                ("host", host);
                ("result", json);
              ])))
    record;
  print_endline (Json.to_string json);
  r.failures = []
