(* Tests for Hlts_lang: lexing, parsing, elaboration, and agreement of the
   HDL description of diffeq with the programmatic benchmark. *)

open Hlts_lang
module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let expect_error what = function
  | Ok (_ : Dfg.t) -> Alcotest.failf "expected %s to be rejected" what
  | Error (_ : string) -> ()

let toy_src =
  {|
design toy is
  input a, b, c;
  output q;
begin
  s := a + b;
  p := s * c;
  q := p - a;
end;
|}

let test_toy_compiles () =
  let d = ok_or_fail (Lang.compile toy_src) in
  Alcotest.(check int) "3 ops" 3 (List.length d.Dfg.ops);
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c" ] d.Dfg.inputs;
  Alcotest.(check (list string)) "outputs" [ "q" ] d.Dfg.outputs

let test_compound_expr_decomposed () =
  let src =
    {|
design c is
  input a, b, c, d;
  output r;
begin
  r := (a + b) * (c - d);
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  Alcotest.(check int) "3 ops" 3 (List.length d.Dfg.ops);
  (* the root op computes the mul and carries the target name *)
  let root = Option.get (Dfg.op_by_result d "r") in
  Alcotest.(check bool) "root is mul" true (root.Dfg.kind = Op.Mul)

let test_precedence () =
  (* a + b * c parses as a + (b * c): root is the add. *)
  let src =
    {|
design p is
  input a, b, c;
  output r;
begin
  r := a + b * c;
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  let root = Option.get (Dfg.op_by_result d "r") in
  Alcotest.(check bool) "root is add" true (root.Dfg.kind = Op.Add);
  (* and a * b + c as (a * b) + c too *)
  let src2 =
    {|
design p is
  input a, b, c;
  output r;
begin
  r := a * b + c;
end;
|}
  in
  let d2 = ok_or_fail (Lang.compile src2) in
  let root2 = Option.get (Dfg.op_by_result d2 "r") in
  Alcotest.(check bool) "root is add" true (root2.Dfg.kind = Op.Add)

let test_logic_precedence () =
  (* a & b ^ c | d parses as ((a & b) ^ c) | d: or loosest *)
  let src =
    {|
design lp is
  input a, b, c, d;
  output r;
begin
  r := a & b ^ c | d;
end;
|}
  in
  let g = ok_or_fail (Lang.compile src) in
  let root = Option.get (Dfg.op_by_result g "r") in
  Alcotest.(check bool) "or at root" true (root.Dfg.kind = Op.Or);
  (* comparison binds loosest of all *)
  let src2 =
    {|
design lp is
  input a, b, c;
  output r;
begin
  r := a + b;
  q := a + b < c | r;
end;
|}
  in
  let g2 = ok_or_fail (Lang.compile src2) in
  let q = Option.get (Dfg.op_by_result g2 "q") in
  Alcotest.(check bool) "lt at root" true (q.Dfg.kind = Op.Lt)

let test_deep_expression () =
  let src =
    {|
design deep is
  input a, b;
  output r;
begin
  r := ((a + b) * (a - b) + (a * b)) * ((a | b) & (a ^ b));
end;
|}
  in
  let g = ok_or_fail (Lang.compile src) in
  Alcotest.(check int) "9 ops" 9 (List.length g.Dfg.ops);
  (* and the interpreter agrees with a hand calculation at 8 bit *)
  let out = Dfg.eval g ~bits:8 [ ("a", 5); ("b", 3) ] in
  let expected =
    let m x = x land 255 in
    m (m ((m (5 + 3) * m (5 - 3)) + (5 * 3)) * m ((5 lor 3) land (5 lxor 3)))
  in
  Alcotest.(check (list (pair string int))) "value" [ ("r", expected) ] out

let test_left_associativity () =
  let src =
    {|
design l is
  input a, b, c;
  output r;
begin
  r := a - b - c;
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  (* (a - b) - c: root's left arg is the inner op, right arg is input c *)
  let root = Option.get (Dfg.op_by_result d "r") in
  (match root.Dfg.args with
  | Dfg.Op _, Dfg.Input "c" -> ()
  | _ -> Alcotest.fail "expected ((a-b) - c)")

let test_labels_pin_ids () =
  let src =
    {|
design lbl is
  input a, b;
  output r;
begin
  N21: t := a * b;
  r := t + a;
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  let t = Option.get (Dfg.op_by_result d "t") in
  Alcotest.(check int) "pinned id" 21 t.Dfg.id;
  let r = Option.get (Dfg.op_by_result d "r") in
  Alcotest.(check bool) "other id differs" true (r.Dfg.id <> 21)

let test_reassignment_ssa () =
  let src =
    {|
design ssa is
  input a, b;
  output x;
begin
  x := a + b;
  x := x * a;
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  Alcotest.(check int) "2 ops" 2 (List.length d.Dfg.ops);
  (* the output refers to the final definition *)
  let out = List.hd d.Dfg.outputs in
  let root = Option.get (Dfg.op_by_result d out) in
  Alcotest.(check bool) "final def is the mul" true (root.Dfg.kind = Op.Mul);
  (* and the mul reads the first definition *)
  (match root.Dfg.args with
  | Dfg.Op _, Dfg.Input "a" -> ()
  | _ -> Alcotest.fail "expected (x_1 * a)")

let test_comments_and_whitespace () =
  let src =
    "design c is -- header comment\n input a, b;\n output r;\nbegin\n"
    ^ "  r := a + b; -- trailing comment\nend;\n"
  in
  ignore (ok_or_fail (Lang.compile src))

let test_condition_allowed_as_statement () =
  let src =
    {|
design cond is
  input a, b;
  output r;
begin
  r := a + b;
  c := r < a;
end;
|}
  in
  let d = ok_or_fail (Lang.compile src) in
  Alcotest.(check int) "2 ops" 2 (List.length d.Dfg.ops)

(* --- rejection cases -------------------------------------------------- *)

let wrap body =
  Printf.sprintf
    "design e is\n input a, b;\n output r;\nbegin\n r := a + b;\n%s\nend;" body

let test_errors () =
  expect_error "use before def" (Lang.compile (wrap " q := zz + a;"));
  expect_error "trivial copy" (Lang.compile (wrap " q := a;"));
  expect_error "constant expr" (Lang.compile (wrap " q := 1 + 2;"));
  expect_error "duplicate label"
    (Lang.compile (wrap " N5: q := a + b;\n N5: w := a + b;"));
  expect_error "condition as data"
    (Lang.compile (wrap " c := a < b;\n q := c + a;"));
  expect_error "bad char" (Lang.compile (wrap " q := a ? b;"));
  expect_error "missing semi"
    (Lang.compile "design e is\n input a, b;\n output r;\nbegin\n r := a + b\nend;");
  expect_error "unknown output"
    (Lang.compile "design e is\n input a, b;\n output zz;\nbegin\n r := a + b;\nend;");
  expect_error "output is condition"
    (Lang.compile
       "design e is\n input a, b;\n output c;\nbegin\n c := a < b;\nend;");
  expect_error "bad label" (Lang.compile (wrap " X9: q := a + b;"))

let test_out_of_range_literal () =
  match Lang.compile (wrap " q := a + 99999999999999999999999;") with
  | Ok _ -> Alcotest.fail "out-of-range literal accepted"
  | Error msg ->
    Alcotest.(check string) "line-numbered diagnostic"
      "line 6: integer literal 99999999999999999999999 out of range" msg

(* --- fuzzing: [compile] returns a result on any input ------------------- *)

let total src = match Lang.compile src with Ok _ | Error _ -> true

let prop_compile_random_bytes =
  QCheck.Test.make ~name:"compile total on random bytes" ~count:500
    QCheck.(string_gen_of_size Gen.(0 -- 200) Gen.char)
    total

(* Token soup from the language's own vocabulary, half of it inside a
   well-formed header so the parser and elaborator get past line 1. *)
let token_source =
  let vocab =
    [| "design"; "is"; "input"; "output"; "begin"; "end"; ":="; ":"; ";";
       ","; "("; ")"; "+"; "-"; "*"; "<"; ">"; "<="; ">="; "=="; "!=";
       "&"; "|"; "^"; "a"; "b"; "q"; "r"; "N5"; "n0"; "x1"; "0"; "7";
       "4611686018427387903"; "99999999999999999999999"; "-- note\n";
       "\n" |]
  in
  let open QCheck.Gen in
  let tokens = list_size (0 -- 40) (oneofa vocab) >|= String.concat " " in
  let with_header =
    tokens >|= fun body ->
    "design f is\n input a, b;\n output q;\nbegin\n" ^ body ^ "\nend;"
  in
  QCheck.make ~print:Fun.id (oneof [ tokens; with_header ])

let prop_compile_token_streams =
  QCheck.Test.make ~name:"compile total on token streams" ~count:500
    token_source total

(* --- diffeq source agrees with the programmatic benchmark ------------- *)

let diffeq_src =
  {|
design diffeq is
  input x, y, u, dx, a;
  output x1, y1, u1;
begin
  N26: t1 := 3 * x;
  N27: t2 := u * dx;
  N29: t3 := t1 * t2;
  N31: t4 := 3 * y;
  N33: t5 := t4 * dx;
  N30: t6 := u - t3;
  N34: u1 := t6 - t5;
  N35: t7 := u * dx;
  N36: y1 := y + t7;
  N25: x1 := x + dx;
  N24: cond := x1 < a;
end;
|}

let test_diffeq_matches_benchmark () =
  let d = ok_or_fail (Lang.compile diffeq_src) in
  let b = Hlts_dfg.Benchmarks.diffeq in
  let summary g =
    ( List.length g.Dfg.ops,
      List.sort compare (List.map (fun o -> o.Dfg.id) g.Dfg.ops),
      List.sort compare
        (List.map (fun o -> (o.Dfg.id, Op.symbol o.Dfg.kind)) g.Dfg.ops) )
  in
  let n1, ids1, ks1 = summary d and n2, ids2, ks2 = summary b in
  Alcotest.(check int) "op count" n2 n1;
  Alcotest.(check (list int)) "ids" ids2 ids1;
  Alcotest.(check (list (pair int string))) "kinds" ks2 ks1

let prop_generated_designs_compile =
  (* Random straight-line programs over a small variable pool always
     compile, and the op count equals the number of binary nodes. *)
  let gen =
    QCheck.Gen.(
      let var = oneofl [ "a"; "b"; "v0"; "v1"; "v2" ] in
      let rec expr n =
        if n <= 0 then map (fun v -> Ast.E_var v) var
        else
          frequency
            [
              (1, map (fun v -> Ast.E_var v) var);
              ( 3,
                map3
                  (fun k l r -> Ast.E_bin (k, l, r))
                  (oneofl [ Op.Add; Op.Sub; Op.Mul ])
                  (expr (n - 1)) (expr (n - 1)) );
            ]
      in
      let stmt i =
        map
          (fun e -> (Printf.sprintf "v%d" (i mod 3), e))
          (expr 2)
      in
      list_size (1 -- 6) (stmt 0) >|= fun stmts ->
      List.mapi (fun i (_, e) -> (Printf.sprintf "v%d" (i mod 3), e)) stmts)
  in
  let count_bins e =
    let rec go = function
      | Ast.E_var _ | Ast.E_const _ -> 0
      | Ast.E_bin (_, l, r) -> 1 + go l + go r
    in
    go e
  in
  QCheck.Test.make ~name:"generated programs compile" ~count:100
    (QCheck.make gen)
    (fun stmts ->
      (* all vars must be defined before use: prime v0..v2 from inputs *)
      let body =
        "  v0 := a + b;\n  v1 := a - b;\n  v2 := a * b;\n"
        ^ String.concat ""
            (List.map
               (fun (lhs, e) ->
                 let rec str = function
                   | Ast.E_var v -> v
                   | Ast.E_const k -> string_of_int k
                   | Ast.E_bin (k, l, r) ->
                     Printf.sprintf "(%s %s %s)" (str l) (Op.symbol k) (str r)
                 in
                 Printf.sprintf "  %s := %s;\n" lhs (str e))
               stmts)
      in
      let src =
        "design gen is\n  input a, b;\n  output v0;\nbegin\n" ^ body ^ "end;"
      in
      match Lang.compile src with
      | Error _ ->
        (* only trivial copies are expected to fail *)
        List.exists (fun (_, e) -> count_bins e = 0) stmts
      | Ok d ->
        let expected =
          List.fold_left (fun acc (_, e) -> acc + count_bins e) 3 stmts
        in
        List.length d.Dfg.ops = expected)

let () =
  Alcotest.run "hlts_lang"
    [
      ( "compile",
        [
          Alcotest.test_case "toy" `Quick test_toy_compiles;
          Alcotest.test_case "compound decomposed" `Quick test_compound_expr_decomposed;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "left assoc" `Quick test_left_associativity;
          Alcotest.test_case "logic precedence" `Quick test_logic_precedence;
          Alcotest.test_case "deep expression" `Quick test_deep_expression;
          Alcotest.test_case "labels" `Quick test_labels_pin_ids;
          Alcotest.test_case "reassignment SSA" `Quick test_reassignment_ssa;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "conditions" `Quick test_condition_allowed_as_statement;
        ] );
      ( "errors",
        [
          Alcotest.test_case "rejections" `Quick test_errors;
          Alcotest.test_case "out-of-range literal" `Quick
            test_out_of_range_literal;
          QCheck_alcotest.to_alcotest prop_compile_random_bytes;
          QCheck_alcotest.to_alcotest prop_compile_token_streams;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "diffeq matches benchmark" `Quick
            test_diffeq_matches_benchmark;
          QCheck_alcotest.to_alcotest prop_generated_designs_compile;
        ] );
    ]
