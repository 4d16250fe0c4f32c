type token =
  | T_ident of string
  | T_int of int
  | T_design
  | T_is
  | T_input
  | T_output
  | T_begin
  | T_end
  | T_assign
  | T_colon
  | T_semi
  | T_comma
  | T_lparen
  | T_rparen
  | T_op of Hlts_dfg.Op.kind
  | T_eof

type located = { tok : token; line : int }

let keyword = function
  | "design" -> Some T_design
  | "is" -> Some T_is
  | "input" -> Some T_input
  | "output" -> Some T_output
  | "begin" -> Some T_begin
  | "end" -> Some T_end
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit tok = toks := { tok; line = !line } :: !toks in
  let rec scan i =
    if i >= n then begin
      emit T_eof;
      Ok (List.rev !toks)
    end
    else
      let c = src.[i] in
      if c = '\n' then begin incr line; scan (i + 1) end
      else if c = ' ' || c = '\t' || c = '\r' then scan (i + 1)
      else if c = '-' && i + 1 < n && src.[i + 1] = '-' then begin
        (* comment to end of line *)
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        scan (skip i)
      end
      else if is_ident_start c then begin
        let rec span j = if j < n && is_ident_char src.[j] then span (j + 1) else j in
        let j = span i in
        let word = String.sub src i (j - i) in
        emit (Option.value ~default:(T_ident word) (keyword word));
        scan j
      end
      else if is_digit c then begin
        let rec span j = if j < n && is_digit src.[j] then span (j + 1) else j in
        let j = span i in
        let digits = String.sub src i (j - i) in
        match int_of_string_opt digits with
        | Some k -> emit (T_int k); scan j
        | None ->
          Error
            (Printf.sprintf "line %d: integer literal %s out of range" !line
               digits)
      end
      else
        let two = if i + 1 < n then String.sub src i 2 else "" in
        match two with
        | ":=" -> emit T_assign; scan (i + 2)
        | "<=" -> emit (T_op Hlts_dfg.Op.Le); scan (i + 2)
        | ">=" -> emit (T_op Hlts_dfg.Op.Ge); scan (i + 2)
        | "==" -> emit (T_op Hlts_dfg.Op.Eq); scan (i + 2)
        | "!=" -> emit (T_op Hlts_dfg.Op.Ne); scan (i + 2)
        | _ -> begin
          match c with
          | ':' -> emit T_colon; scan (i + 1)
          | ';' -> emit T_semi; scan (i + 1)
          | ',' -> emit T_comma; scan (i + 1)
          | '(' -> emit T_lparen; scan (i + 1)
          | ')' -> emit T_rparen; scan (i + 1)
          | '+' -> emit (T_op Hlts_dfg.Op.Add); scan (i + 1)
          | '-' -> emit (T_op Hlts_dfg.Op.Sub); scan (i + 1)
          | '*' -> emit (T_op Hlts_dfg.Op.Mul); scan (i + 1)
          | '<' -> emit (T_op Hlts_dfg.Op.Lt); scan (i + 1)
          | '>' -> emit (T_op Hlts_dfg.Op.Gt); scan (i + 1)
          | '&' -> emit (T_op Hlts_dfg.Op.And); scan (i + 1)
          | '|' -> emit (T_op Hlts_dfg.Op.Or); scan (i + 1)
          | '^' -> emit (T_op Hlts_dfg.Op.Xor); scan (i + 1)
          | _ ->
            Error (Printf.sprintf "line %d: unexpected character %C" !line c)
        end
  in
  scan 0

let token_name = function
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_int k -> Printf.sprintf "integer %d" k
  | T_design -> "'design'"
  | T_is -> "'is'"
  | T_input -> "'input'"
  | T_output -> "'output'"
  | T_begin -> "'begin'"
  | T_end -> "'end'"
  | T_assign -> "':='"
  | T_colon -> "':'"
  | T_semi -> "';'"
  | T_comma -> "','"
  | T_lparen -> "'('"
  | T_rparen -> "')'"
  | T_op k -> Printf.sprintf "'%s'" (Hlts_dfg.Op.symbol k)
  | T_eof -> "end of input"
