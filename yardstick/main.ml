(* The benchmark runner.

     dune exec --root . yardstick/main.exe -- --workload NAME [--seed N]
       [--seconds S] [--trace 0|1] [--traced FILE] [--record FILE]
     dune exec --root . yardstick/main.exe -- --compare A.jsonl B.jsonl

   Prints every metric of the run by name with its unit, then one JSON
   result line. Exits 1 when a correctness check failed, 2 on bad
   arguments or an aborted run. See yardstick/README.md. *)

open Yardstick

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--traced \
   FILE] [--record FILE] | --compare A.jsonl B.jsonl"

let () =
  Served.serve_if_asked ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let traced = ref false and trace_file = ref None and record = ref None in
  let compare = ref [] in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat "|" (List.map (fun w -> w.Run.name) Run.all) );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measurement window (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> traced := false
          | 1 -> traced := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  1 runs traced and reports the per-layer metrics" );
      ( "--traced",
        Arg.String
          (fun f ->
            traced := true;
            trace_file := Some f),
        "FILE  run traced and write the Chrome trace to FILE" );
      ( "--record",
        Arg.String (fun f -> record := Some f),
        "FILE  append the run, with host facts, to FILE (JSON lines)" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun a -> compare := [ a ]);
            Arg.String (fun b -> compare := !compare @ [ b ]);
          ],
        "A B  compare two files of recorded runs" );
    ]
  in
  let bad msg =
    prerr_endline msg;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  match !compare with
  | [ a; b ] -> (
    try Compare.main ~bench_json:"BENCHMARK.json" a b
    with Failure msg | Sys_error msg -> bad msg)
  | _ -> (
    match Run.find !workload with
    | None -> bad usage
    | Some _ when !seed < 0 || !seconds <= 0.0 ->
      bad "--seed must be >= 0 and --seconds > 0"
    | Some w -> (
      match
        Run.main w ~seed:!seed ~seconds:!seconds ~traced:!traced
          ~trace_file:!trace_file ~record:!record
      with
      | true -> ()
      | false -> exit 1
      | exception e -> bad ("run aborted: " ^ Printexc.to_string e)))
