(* Shared by the suites that pin deterministic outputs: the merge
   trajectory digest and the check of computed lines against a file
   under golden/. *)

module Synth = Hlts_synth.Synth

(* MD5 over a run's iteration records. %h prints exact float images, so
   any change in merge order, summation order or tie-breaking changes
   the digest. *)
let records_digest records =
  let line r =
    Printf.sprintf "%d|%s|%d|%h|%h|%h" r.Synth.iteration r.Synth.description
      r.Synth.delta_e r.Synth.delta_h r.Synth.cost r.Synth.seq_depth
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map line records)))

(* [check file actual] compares [actual], one entry per line, with
   golden/[file]. On a mismatch it also writes [actual] to [file].actual
   in the test's working directory (_build/default/test), which is what
   a named change copies over test/golden/[file] to re-baseline. *)
let check file actual =
  let expected =
    In_channel.with_open_text (Filename.concat "golden" file)
      In_channel.input_all
    |> String.trim
    |> String.split_on_char '\n'
  in
  if actual <> expected then
    Out_channel.with_open_text (file ^ ".actual") (fun oc ->
        List.iter (fun l -> Printf.fprintf oc "%s\n" l) actual);
  Alcotest.(check (list string))
    (Printf.sprintf "%s (computed lines in %s.actual)" file file)
    expected actual
