type state = {
  toks : Lexer.located array;
  mutable pos : int;
}

exception Parse_error of string

let fail st fmt =
  let line = st.toks.(st.pos).Lexer.line in
  Format.kasprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" line m))) fmt

let peek st = st.toks.(st.pos).Lexer.tok

let line st = st.toks.(st.pos).Lexer.line
let advance st = st.pos <- st.pos + 1

let expect st tok what =
  if peek st = tok then advance st
  else fail st "expected %s, found %s" what (Lexer.token_name (peek st))

let ident st =
  match peek st with
  | Lexer.T_ident name -> advance st; name
  | other -> fail st "expected identifier, found %s" (Lexer.token_name other)

let ident_list st =
  let rec more acc =
    match peek st with
    | Lexer.T_comma -> advance st; more (ident st :: acc)
    | _ -> List.rev acc
  in
  more [ ident st ]

(* Precedence climbing. Levels, loosest first. *)
let level_of (k : Hlts_dfg.Op.kind) =
  match k with
  | Lt | Gt | Le | Ge | Eq | Ne -> 1
  | Or -> 2
  | Xor -> 3
  | And -> 4
  | Add | Sub -> 5
  | Mul -> 6

let max_level = 6

let rec expr_at st level =
  if level > max_level then primary st
  else
    let rec loop lhs =
      match peek st with
      | Lexer.T_op k when level_of k = level ->
        advance st;
        let rhs = expr_at st (level + 1) in
        loop (Ast.E_bin (k, lhs, rhs))
      | _ -> lhs
    in
    loop (expr_at st (level + 1))

and primary st =
  match peek st with
  | Lexer.T_int k -> advance st; Ast.E_const k
  | Lexer.T_ident name -> advance st; Ast.E_var name
  | Lexer.T_lparen ->
    advance st;
    let e = expr_at st 1 in
    expect st Lexer.T_rparen "')'";
    e
  | other -> fail st "expected expression, found %s" (Lexer.token_name other)

let expr st = expr_at st 1

(* Decimal digits only: [int_of_string_opt] alone would also take OCaml
   literal syntax ("0x1F", "1_0", "0b11"), so two spellings could pin
   the same op id. *)
let node_label name =
  let n = String.length name in
  if n > 1 && (name.[0] = 'N' || name.[0] = 'n') then
    let digits = String.sub name 1 (n - 1) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

let stmt st =
  let s_line = line st in
  let first = ident st in
  match peek st with
  | Lexer.T_colon -> begin
    (* labeled statement: N26: lhs := expr ; *)
    match node_label first with
    | None -> fail st "label %S is not of the form N<number>" first
    | Some id ->
      advance st;
      let lhs = ident st in
      expect st Lexer.T_assign "':='";
      let rhs = expr st in
      expect st Lexer.T_semi "';'";
      { Ast.s_line; s_label = Some id; s_lhs = lhs; s_rhs = rhs }
  end
  | Lexer.T_assign ->
    advance st;
    let rhs = expr st in
    expect st Lexer.T_semi "';'";
    { Ast.s_line; s_label = None; s_lhs = first; s_rhs = rhs }
  | other -> fail st "expected ':=' or ':', found %s" (Lexer.token_name other)

let design st =
  expect st Lexer.T_design "'design'";
  let d_name = ident st in
  expect st Lexer.T_is "'is'";
  let inputs = ref [] and outputs = ref [] in
  let rec decls () =
    match peek st with
    | Lexer.T_input ->
      advance st;
      let names = ident_list st in
      expect st Lexer.T_semi "';'";
      inputs := !inputs @ names;
      decls ()
    | Lexer.T_output ->
      advance st;
      let names = ident_list st in
      expect st Lexer.T_semi "';'";
      outputs := !outputs @ names;
      decls ()
    | _ -> ()
  in
  decls ();
  expect st Lexer.T_begin "'begin'";
  let rec stmts acc =
    match peek st with
    | Lexer.T_end -> List.rev acc
    | _ -> stmts (stmt st :: acc)
  in
  let d_body = stmts [] in
  expect st Lexer.T_end "'end'";
  if peek st = Lexer.T_semi then advance st;
  if peek st <> Lexer.T_eof then
    fail st "trailing input: %s" (Lexer.token_name (peek st));
  { Ast.d_name; d_inputs = !inputs; d_outputs = !outputs; d_body }

let parse src =
  match Lexer.tokenize src with
  | Error _ as e -> e
  | Ok toks -> begin
    let st = { toks = Array.of_list toks; pos = 0 } in
    match design st with
    | d -> Ok d
    | exception Parse_error msg -> Error msg
  end
