let op id kind result a b : Dfg.operation = { Dfg.id; kind; args = (a, b); result }

let v name = Dfg.Input name
let r id = Dfg.Op id
let c k = Dfg.Const k

let ex =
  Dfg.validate_exn
    {
      Dfg.name = "ex";
      inputs = [ "a"; "b"; "c"; "d"; "e"; "f" ];
      ops =
        [
          op 21 Op.Mul "u" (v "a") (v "b");
          op 22 Op.Mul "v" (v "c") (v "d");
          op 24 Op.Mul "w" (v "e") (v "f");
          op 28 Op.Mul "x" (v "a") (v "f");
          op 25 Op.Sub "y" (r 21) (r 22);
          op 27 Op.Sub "z" (r 24) (r 28);
          op 29 Op.Sub "y2" (r 25) (r 27);
          op 30 Op.Add "z2" (r 29) (r 21);
        ];
      outputs = [ "y2"; "z2" ];
    }

let dct =
  Dfg.validate_exn
    {
      Dfg.name = "dct";
      inputs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ];
      ops =
        [
          op 27 Op.Add "i" (v "a") (v "h");
          op 28 Op.Sub "j" (v "a") (v "h");
          op 29 Op.Add "p1" (v "b") (v "g");
          op 30 Op.Sub "p2" (v "b") (v "g");
          op 37 Op.Add "p3" (v "c") (v "f");
          op 42 Op.Add "p4" (v "d") (v "e");
          op 31 Op.Mul "q2" (r 28) (c 35);
          op 33 Op.Mul "q3" (r 30) (c 49);
          op 35 Op.Mul "q4" (r 42) (c 17);
          op 38 Op.Mul "s1" (r 37) (c 42);
          op 40 Op.Mul "s2" (r 27) (c 30);
          op 43 Op.Add "s3" (r 31) (r 33);
          op 44 Op.Add "s4" (r 38) (r 40);
        ];
      outputs = [ "p1"; "q4"; "s3"; "s4" ];
    }

let diffeq =
  Dfg.validate_exn
    {
      Dfg.name = "diffeq";
      inputs = [ "x"; "y"; "u"; "dx"; "a" ];
      ops =
        [
          op 26 Op.Mul "t1" (c 3) (v "x");
          op 27 Op.Mul "t2" (v "u") (v "dx");
          op 29 Op.Mul "t3" (r 26) (r 27);
          op 31 Op.Mul "t4" (c 3) (v "y");
          op 33 Op.Mul "t5" (r 31) (v "dx");
          op 30 Op.Sub "t6" (v "u") (r 29);
          op 34 Op.Sub "u1" (r 30) (r 33);
          op 35 Op.Mul "t7" (v "u") (v "dx");
          op 36 Op.Add "y1" (v "y") (r 35);
          op 25 Op.Add "x1" (v "x") (v "dx");
          op 24 Op.Lt "cond" (r 25) (v "a");
        ];
      outputs = [ "x1"; "y1"; "u1" ];
    }

let ewf =
  (* Fifth-order elliptic wave filter: 26 additions, 8 multiplications,
     the classic deep add-mul-add chains over 7 state variables. *)
  Dfg.validate_exn
    {
      Dfg.name = "ewf";
      inputs = [ "inp"; "sv2"; "sv13"; "sv18"; "sv26"; "sv33"; "sv38"; "sv39" ];
      ops =
        [
          op 1 Op.Add "n1" (v "inp") (v "sv2");
          op 2 Op.Add "n2" (r 1) (v "sv13");
          op 3 Op.Mul "n3" (r 2) (c 11);
          op 4 Op.Add "n4" (r 3) (v "sv13");
          op 5 Op.Add "n5" (r 4) (r 1);
          op 6 Op.Mul "n6" (r 5) (c 13);
          op 7 Op.Add "n7" (r 6) (r 4);
          op 8 Op.Add "n8" (r 7) (v "sv18");
          op 9 Op.Add "n9" (r 8) (r 5);
          op 10 Op.Mul "n10" (r 9) (c 17);
          op 11 Op.Add "n11" (r 10) (r 8);
          op 12 Op.Add "n12" (r 11) (v "sv26");
          op 13 Op.Add "n13" (r 12) (r 9);
          op 14 Op.Mul "n14" (r 13) (c 19);
          op 15 Op.Add "n15" (r 14) (r 12);
          op 16 Op.Add "n16" (r 15) (v "sv33");
          op 17 Op.Add "n17" (r 16) (r 13);
          op 18 Op.Mul "n18" (r 17) (c 23);
          op 19 Op.Add "n19" (r 18) (r 16);
          op 20 Op.Add "n20" (r 19) (v "sv38");
          op 21 Op.Add "n21" (r 20) (r 17);
          op 22 Op.Mul "n22" (r 21) (c 29);
          op 23 Op.Add "n23" (r 22) (r 20);
          op 24 Op.Add "n24" (r 23) (v "sv39");
          op 25 Op.Add "n25" (r 24) (r 21);
          op 26 Op.Mul "n26" (r 25) (c 31);
          op 27 Op.Add "n27" (r 26) (r 24);
          op 28 Op.Add "n28" (r 27) (r 23);
          op 29 Op.Mul "n29" (r 28) (c 37);
          op 30 Op.Add "n30" (r 29) (r 27);
          op 31 Op.Add "n31" (r 30) (r 19);
          op 32 Op.Add "n32" (r 31) (r 15);
          op 33 Op.Add "n33" (r 32) (r 11);
          op 34 Op.Add "n34" (r 33) (r 7);
        ];
      outputs = [ "n25"; "n28"; "n30"; "n34" ];
    }

let paulin =
  Dfg.validate_exn
    {
      Dfg.name = "paulin";
      inputs = [ "i1"; "i2"; "i3"; "i4"; "i5"; "i6"; "i7" ];
      ops =
        [
          op 1 Op.Mul "m1" (v "i1") (v "i2");
          op 2 Op.Mul "m2" (v "i3") (v "i4");
          op 3 Op.Mul "m3" (r 1) (v "i5");
          op 4 Op.Mul "m4" (r 2) (v "i6");
          op 5 Op.Add "a1" (r 3) (r 4);
          op 6 Op.Add "a2" (r 5) (v "i7");
          op 7 Op.Sub "s1" (r 5) (r 1);
          op 8 Op.Sub "s2" (r 7) (r 6);
        ];
      outputs = [ "a2"; "s2" ];
    }

let tseng =
  Dfg.validate_exn
    {
      Dfg.name = "tseng";
      inputs = [ "v1"; "v2"; "v3" ];
      ops =
        [
          op 1 Op.Add "v4" (v "v1") (v "v2");
          op 2 Op.Sub "v5" (v "v3") (v "v1");
          op 3 Op.Or "v6" (r 1) (r 2);
          op 4 Op.Sub "v7" (r 1) (r 2);
          op 5 Op.And "v8" (r 3) (r 4);
          op 6 Op.Mul "v9" (r 4) (r 5);
        ];
      outputs = [ "v6"; "v9" ];
    }

let ar =
  (* AR lattice filter: the classic 16-mul/12-add HLS benchmark shape —
     four lattice stages, each two multiplies per input pair feeding
     cross-coupled additions. *)
  Dfg.validate_exn
    {
      Dfg.name = "ar";
      inputs = [ "x0"; "x1"; "k0"; "k1"; "k2"; "k3"; "s0"; "s1" ];
      ops =
        [
          op 1 Op.Mul "m1" (v "x0") (v "k0");
          op 2 Op.Mul "m2" (v "x1") (v "k0");
          op 3 Op.Add "a1" (r 1) (v "s0");
          op 4 Op.Add "a2" (r 2) (v "s1");
          op 5 Op.Mul "m3" (r 3) (v "k1");
          op 6 Op.Mul "m4" (r 4) (v "k1");
          op 7 Op.Add "a3" (r 5) (r 4);
          op 8 Op.Add "a4" (r 6) (r 3);
          op 9 Op.Mul "m5" (r 7) (v "k2");
          op 10 Op.Mul "m6" (r 8) (v "k2");
          op 11 Op.Add "a5" (r 9) (r 8);
          op 12 Op.Add "a6" (r 10) (r 7);
          op 13 Op.Mul "m7" (r 11) (v "k3");
          op 14 Op.Mul "m8" (r 12) (v "k3");
          op 15 Op.Add "a7" (r 13) (r 12);
          op 16 Op.Add "a8" (r 14) (r 11);
          op 17 Op.Mul "m9" (r 15) (v "k0");
          op 18 Op.Mul "m10" (r 16) (v "k1");
          op 19 Op.Add "a9" (r 17) (r 16);
          op 20 Op.Mul "m11" (r 15) (v "k2");
          op 21 Op.Mul "m12" (r 16) (v "k3");
          op 22 Op.Add "a10" (r 18) (r 15);
          op 23 Op.Mul "m13" (r 19) (v "k1");
          op 24 Op.Mul "m14" (r 22) (v "k2");
          op 25 Op.Add "a11" (r 20) (r 23);
          op 26 Op.Add "a12" (r 21) (r 24);
          op 27 Op.Mul "m15" (r 25) (v "k3");
          op 28 Op.Mul "m16" (r 26) (v "k0");
        ];
      outputs = [ "m15"; "m16"; "a11"; "a12" ];
    }

let fir =
  (* 8-tap FIR: y = sum c_i * x_i, balanced adder tree. *)
  Dfg.validate_exn
    {
      Dfg.name = "fir";
      inputs =
        [ "x0"; "x1"; "x2"; "x3"; "x4"; "x5"; "x6"; "x7" ];
      ops =
        [
          op 1 Op.Mul "p0" (v "x0") (c 3);
          op 2 Op.Mul "p1" (v "x1") (c 7);
          op 3 Op.Mul "p2" (v "x2") (c 13);
          op 4 Op.Mul "p3" (v "x3") (c 21);
          op 5 Op.Mul "p4" (v "x4") (c 21);
          op 6 Op.Mul "p5" (v "x5") (c 13);
          op 7 Op.Mul "p6" (v "x6") (c 7);
          op 8 Op.Mul "p7" (v "x7") (c 3);
          op 9 Op.Add "s0" (r 1) (r 2);
          op 10 Op.Add "s1" (r 3) (r 4);
          op 11 Op.Add "s2" (r 5) (r 6);
          op 12 Op.Add "s3" (r 7) (r 8);
          op 13 Op.Add "s4" (r 9) (r 10);
          op 14 Op.Add "s5" (r 11) (r 12);
          op 15 Op.Add "y" (r 13) (r 14);
        ];
      outputs = [ "y" ];
    }

let toy =
  Dfg.validate_exn
    {
      Dfg.name = "toy";
      inputs = [ "a"; "b"; "c" ];
      ops =
        [
          op 1 Op.Add "s" (v "a") (v "b");
          op 2 Op.Mul "p" (r 1) (v "c");
          op 3 Op.Sub "q" (r 2) (v "a");
        ];
      outputs = [ "q" ];
    }

let random ~seed ~ops:n =
  if n < 1 then invalid_arg "Benchmarks.random: ops must be >= 1";
  let rng = Hlts_util.Rng.create seed in
  let n_inputs = max 3 (min 16 (n / 8)) in
  let inputs = List.init n_inputs (Printf.sprintf "i%d") in
  let input_names = Array.of_list inputs in
  let kinds = [| Op.Add; Op.Add; Op.Add; Op.Sub; Op.Sub; Op.Mul; Op.Mul |] in
  (* Operand choice is biased toward recent results so the DFG grows
     EWF-like chains (deep, with cross-links) rather than a shallow
     fan-in tree; args always reference strictly earlier ops, so the
     graph is acyclic by construction. *)
  let operand rng j =
    if j = 0 || Hlts_util.Rng.int rng 100 < 25 then
      v (Hlts_util.Rng.pick rng input_names)
    else if Hlts_util.Rng.int rng 100 < 70 then
      r (1 + (j - 1) - Hlts_util.Rng.int rng (min j 5))
    else r (1 + Hlts_util.Rng.int rng j)
  in
  let ops =
    List.init n (fun j ->
        let kind = Hlts_util.Rng.pick rng kinds in
        let a = operand rng j in
        let b =
          if kind = Op.Mul && Hlts_util.Rng.int rng 100 < 30 then
            c (3 + (2 * Hlts_util.Rng.int rng 30))
          else operand rng j
        in
        op (j + 1) kind (Printf.sprintf "n%d" (j + 1)) a b)
  in
  let used =
    List.concat_map
      (fun (o : Dfg.operation) ->
        let arg = function Dfg.Op id -> [ id ] | _ -> [] in
        let a, b = o.Dfg.args in
        arg a @ arg b)
      ops
  in
  let outputs =
    List.filter_map
      (fun (o : Dfg.operation) ->
        if List.mem o.Dfg.id used then None else Some o.Dfg.result)
      ops
  in
  Dfg.validate_exn
    {
      Dfg.name = Printf.sprintf "rnd-s%d-n%d" seed n;
      inputs;
      ops;
      outputs;
    }

let all =
  [
    ("ex", ex);
    ("dct", dct);
    ("diffeq", diffeq);
    ("ewf", ewf);
    ("paulin", paulin);
    ("tseng", tseng);
    ("ar", ar);
    ("fir", fir);
    ("toy", toy);
  ]

(* The seeded synthetic family is addressable by its own name, so CLIs
   and CI scripts can reference generated designs uniformly. *)
let is_synthetic name =
  String.length name >= 4 && String.lowercase_ascii (String.sub name 0 4) = "rnd-"

let synthetic name =
  if not (is_synthetic name) then None
  else
    try
      Scanf.sscanf (String.lowercase_ascii name) "rnd-s%d-n%d%!"
        (fun seed ops -> Some (seed, ops))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let synthetic_ops name = Option.map snd (synthetic name)

let find name =
  match List.assoc_opt (String.lowercase_ascii name) all with
  | Some dfg -> Some dfg
  | None -> (
    match synthetic name with
    | Some (seed, ops) when ops >= 1 -> Some (random ~seed ~ops)
    | _ -> None)

let names = List.map fst all

let find_result name =
  match find name with
  | Some dfg -> Ok dfg
  | None ->
    Error
      (if is_synthetic name then
         Printf.sprintf
           "unknown benchmark %S: synthetic names are rnd-s<seed>-n<ops> \
            with ops >= 1 (e.g. rnd-s11-n100)"
           name
       else
         Printf.sprintf
           "unknown benchmark %S (available: %s; or a seeded synthetic \
            rnd-s<seed>-n<ops>, e.g. rnd-s11-n100)"
           name
           (String.concat ", " names))
