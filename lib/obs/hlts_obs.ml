module Clock = struct
  (* CLOCK_MONOTONIC via the bechamel stubs already in the build
     environment; Sys.time (CPU time) and Unix.gettimeofday (settable)
     are both wrong for profiling. *)
  let now_ns () = Monotonic_clock.now ()
  let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
end

(* The primitive behind Printf's [%.Ng]: the same bytes, without
   interpreting a format on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal rendering that round-trips the float exactly, so
   encodings are unique and byte-comparable. Shared by the JSON
   emitter and the Prometheus exposition. *)
let float_repr f =
  let s = format_float "%.12g" f in
  if float_of_string s = f then s
  else begin
    let s15 = format_float "%.15g" f in
    if float_of_string s15 = f then s15 else format_float "%.17g" f
  end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let hex_digit = "0123456789abcdef"

  (* Runs of bytes that need no escape are copied in one call. *)
  let escape buf s =
    let n = String.length s in
    let run = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !run (i - !run);
        run := i + 1;
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 15]
      end
    done;
    Buffer.add_substring buf s !run (n - !run)

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> begin
      match Float.classify_float f with
      | FP_nan | FP_infinite -> Buffer.add_string buf "null"
      | FP_normal | FP_subnormal | FP_zero -> Buffer.add_string buf (float_repr f)
    end
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  exception Parse of string

  (* One scanner over [s.[off .. off + len - 1]]; error positions count
     from [off]. It allocates only the tree: no [option] per byte, and
     a string without escapes is one [String.sub]. *)
  let of_substring s off len =
    if off < 0 || len < 0 || off > String.length s - len then
      invalid_arg "Json.of_substring";
    let n = off + len in
    let pos = ref off in
    let fail msg = raise (Parse (Printf.sprintf "%s at %d" msg (!pos - off))) in
    let at c = !pos < n && String.unsafe_get s !pos = c in
    let skip_ws () =
      while
        !pos < n
        && match String.unsafe_get s !pos with
           | ' ' | '\t' | '\n' | '\r' -> true
           | _ -> false
      do
        incr pos
      done
    in
    let expect c = if at c then incr pos else fail (Printf.sprintf "expected %c" c) in
    let literal word v =
      let w = String.length word in
      let rec same i = i = w || (s.[!pos + i] = word.[i] && same (i + 1)) in
      if !pos + w <= n && same 0 then begin
        pos := !pos + w;
        v
      end
      else fail "bad literal"
    in
    (* Advances [pos] to the next quote or backslash, or to the end. *)
    let plain_run () =
      while
        !pos < n
        && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
      do
        incr pos
      done
    in
    (* [pos] is just past a backslash. *)
    let unescape buf =
      if !pos >= n then fail "bad escape";
      match s.[!pos] with
      | '"' -> Buffer.add_char buf '"'; incr pos
      | '\\' -> Buffer.add_char buf '\\'; incr pos
      | '/' -> Buffer.add_char buf '/'; incr pos
      | 'b' -> Buffer.add_char buf '\b'; incr pos
      | 'f' -> Buffer.add_char buf '\012'; incr pos
      | 'n' -> Buffer.add_char buf '\n'; incr pos
      | 'r' -> Buffer.add_char buf '\r'; incr pos
      | 't' -> Buffer.add_char buf '\t'; incr pos
      | 'u' ->
        incr pos;
        if !pos + 4 > n then fail "bad \\u escape";
        (* exactly four hex digits: no sign, blank or underscore *)
        let hex c =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> fail "bad \\u escape"
        in
        let code = ref 0 in
        for i = 0 to 3 do
          code := (!code lsl 4) lor hex s.[!pos + i]
        done;
        let code = !code in
        pos := !pos + 4;
        (* BMP code points as UTF-8; enough for anything the emitter
           produces *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | c -> fail (Printf.sprintf "bad escape \\%c" c)
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      plain_run ();
      if at '"' then begin
        incr pos;
        String.sub s start (!pos - 1 - start)
      end
      else begin
        let buf = Buffer.create (!pos - start + 16) in
        (* [s.[r .. pos - 1]] is the plain run just scanned *)
        let rec loop r =
          Buffer.add_substring buf s r (!pos - r);
          if !pos >= n then fail "unterminated string"
          else if at '"' then incr pos
          else begin
            incr pos;
            unescape buf;
            let r = !pos in
            plain_run ();
            loop r
          end
        in
        loop start;
        Buffer.contents buf
      end
    in
    (* A literal of up to 18 digits, after an optional minus, is read
       here: it cannot overflow, and [int_of_string] reads it the same
       way. Everything else goes to the stdlib converters. *)
    let parse_number () =
      let start = !pos in
      let fractional = ref false and digits = ref true and v = ref 0 in
      let neg = at '-' in
      if neg then incr pos;
      while
        !pos < n
        &&
        match String.unsafe_get s !pos with
        | '0' .. '9' as c ->
          v := (10 * !v) + (Char.code c - Char.code '0');
          true
        | '-' | '+' ->
          digits := false;
          true
        | '.' | 'e' | 'E' ->
          fractional := true;
          true
        | _ -> false
      do
        incr pos
      done;
      let width = !pos - start - if neg then 1 else 0 in
      if (not !fractional) && !digits && width >= 1 && width <= 18 then
        Int (if neg then - !v else !v)
      else begin
        let lit = String.sub s start (!pos - start) in
        if !fractional then
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail ("bad number " ^ lit)
        else
          match int_of_string_opt lit with
          | Some i -> Int i
          | None -> fail ("bad number " ^ lit)
      end
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end";
      match String.unsafe_get s !pos with
      | '"' -> Str (parse_string ())
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            if at ',' then begin
              incr pos;
              items (v :: acc)
            end
            else if at ']' then begin
              incr pos;
              List (List.rev (v :: acc))
            end
            else fail "expected , or ]"
          in
          items []
        end
      | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            if at ',' then begin
              incr pos;
              fields (f :: acc)
            end
            else if at '}' then begin
              incr pos;
              Obj (List.rev (f :: acc))
            end
            else fail "expected , or }"
          in
          fields []
        end
      | '0' .. '9' | '-' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected %c" c)
    in
    match parse_value () with
    | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" (!pos - off))
      else Ok v
    | exception Parse msg -> Error msg

  let of_string s = of_substring s 0 (String.length s)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

  let int = function Int i -> Some i | _ -> None

  (* [to_string] drops the ".0" of integral floats, so the parser hands
     them back as [Int]: a number takes both. *)
  let number = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None

  let string = function Str s -> Some s | _ -> None
  let bool = function Bool b -> Some b | _ -> None

  (* The error strings are built only on the error branch: request
     decoding in the daemon runs these on every frame. *)
  let wrong_type name = Error (Printf.sprintf "field %S has the wrong type" name)

  let field name conv j =
    match member name j with
    | Some v -> ( match conv v with Some x -> Ok x | None -> wrong_type name)
    | None -> Error (Printf.sprintf "missing field %S" name)

  let field_default name conv ~default j =
    match member name j with
    | Some v -> ( match conv v with Some x -> Ok x | None -> wrong_type name)
    | None -> Ok default
end

let ( let* ) = Result.bind

module Journal = struct
  type pair =
    | Units of int * int
    | Registers of int * int

  type strategy =
    | SR1
    | SR2

  type reject =
    | Infeasible
    | Over_budget
    | Not_improving
    | Not_selected

  type event =
    | Iter_begin of { iteration : int; pool : int }
    | Candidate_scored of {
        pair : pair;
        delta_e : int;
        delta_h : float;
        sched_len : int;
      }
    | Candidate_rejected of { pair : pair; reason : reject }
    | Merge_committed of {
        description : string;
        reason : string;
        delta_e : int;
        delta_h : float;
        cost : float;
      }
    | Reschedule of { strategy : strategy; moved_ops : (int * int * int) list }
    | Testability_snapshot of {
        seq_depth : float;
        registers : int;
        units : int;
        sched_len : int;
        area_mm2 : float;
      }

  let json_of_pair = function
    | Units (a, b) ->
      Json.Obj [ ("kind", Json.Str "units"); ("a", Json.Int a); ("b", Json.Int b) ]
    | Registers (a, b) ->
      Json.Obj
        [ ("kind", Json.Str "registers"); ("a", Json.Int a); ("b", Json.Int b) ]

  let string_of_reject = function
    | Infeasible -> "infeasible"
    | Over_budget -> "over_budget"
    | Not_improving -> "not_improving"
    | Not_selected -> "not_selected"

  let string_of_strategy = function
    | SR1 -> "SR1"
    | SR2 -> "SR2"

  let encode = function
    | Iter_begin { iteration; pool } ->
      Json.Obj
        [
          ("ev", Json.Str "iter_begin"); ("iteration", Json.Int iteration);
          ("pool", Json.Int pool);
        ]
    | Candidate_scored { pair; delta_e; delta_h; sched_len } ->
      Json.Obj
        [
          ("ev", Json.Str "candidate_scored"); ("pair", json_of_pair pair);
          ("delta_e", Json.Int delta_e); ("delta_h", Json.Float delta_h);
          ("sched_len", Json.Int sched_len);
        ]
    | Candidate_rejected { pair; reason } ->
      Json.Obj
        [
          ("ev", Json.Str "candidate_rejected"); ("pair", json_of_pair pair);
          ("reason", Json.Str (string_of_reject reason));
        ]
    | Merge_committed { description; reason; delta_e; delta_h; cost } ->
      Json.Obj
        [
          ("ev", Json.Str "merge_committed");
          ("description", Json.Str description); ("reason", Json.Str reason);
          ("delta_e", Json.Int delta_e); ("delta_h", Json.Float delta_h);
          ("cost", Json.Float cost);
        ]
    | Reschedule { strategy; moved_ops } ->
      Json.Obj
        [
          ("ev", Json.Str "reschedule");
          ("strategy", Json.Str (string_of_strategy strategy));
          ( "moved",
            Json.List
              (List.map
                 (fun (op, from_, to_) ->
                   Json.List [ Json.Int op; Json.Int from_; Json.Int to_ ])
                 moved_ops) );
        ]
    | Testability_snapshot { seq_depth; registers; units; sched_len; area_mm2 }
      ->
      Json.Obj
        [
          ("ev", Json.Str "testability_snapshot");
          ("seq_depth", Json.Float seq_depth);
          ("registers", Json.Int registers); ("units", Json.Int units);
          ("sched_len", Json.Int sched_len); ("area_mm2", Json.Float area_mm2);
        ]

  let pair_field name j =
    let* p = Json.field name Option.some j in
    let* kind = Json.field "kind" Json.string p in
    let* a = Json.field "a" Json.int p in
    let* b = Json.field "b" Json.int p in
    match kind with
    | "units" -> Ok (Units (a, b))
    | "registers" -> Ok (Registers (a, b))
    | k -> Error (Printf.sprintf "unknown pair kind %S" k)

  let reject_of_string = function
    | "infeasible" -> Ok Infeasible
    | "over_budget" -> Ok Over_budget
    | "not_improving" -> Ok Not_improving
    | "not_selected" -> Ok Not_selected
    | s -> Error (Printf.sprintf "unknown reject reason %S" s)

  let moved_of_json = function
    | Json.List rows ->
      List.fold_left
        (fun acc row ->
          let* acc = acc in
          match row with
          | Json.List [ Json.Int op; Json.Int from_; Json.Int to_ ] ->
            Ok ((op, from_, to_) :: acc)
          | _ -> Error "bad moved-op row")
        (Ok []) rows
      |> Result.map List.rev
    | _ -> Error "field \"moved\": expected list"

  let decode j =
    let* ev = Json.field "ev" Json.string j in
    match ev with
    | "iter_begin" ->
      let* iteration = Json.field "iteration" Json.int j in
      let* pool = Json.field "pool" Json.int j in
      Ok (Iter_begin { iteration; pool })
    | "candidate_scored" ->
      let* pair = pair_field "pair" j in
      let* delta_e = Json.field "delta_e" Json.int j in
      let* delta_h = Json.field "delta_h" Json.number j in
      let* sched_len = Json.field "sched_len" Json.int j in
      Ok (Candidate_scored { pair; delta_e; delta_h; sched_len })
    | "candidate_rejected" ->
      let* pair = pair_field "pair" j in
      let* reason = Json.field "reason" Json.string j in
      let* reason = reject_of_string reason in
      Ok (Candidate_rejected { pair; reason })
    | "merge_committed" ->
      let* description = Json.field "description" Json.string j in
      let* reason = Json.field "reason" Json.string j in
      let* delta_e = Json.field "delta_e" Json.int j in
      let* delta_h = Json.field "delta_h" Json.number j in
      let* cost = Json.field "cost" Json.number j in
      Ok (Merge_committed { description; reason; delta_e; delta_h; cost })
    | "reschedule" ->
      let* strategy = Json.field "strategy" Json.string j in
      let* strategy =
        match strategy with
        | "SR1" -> Ok SR1
        | "SR2" -> Ok SR2
        | s -> Error (Printf.sprintf "unknown strategy %S" s)
      in
      let* moved = Json.field "moved" Option.some j in
      let* moved_ops = moved_of_json moved in
      Ok (Reschedule { strategy; moved_ops })
    | "testability_snapshot" ->
      let* seq_depth = Json.field "seq_depth" Json.number j in
      let* registers = Json.field "registers" Json.int j in
      let* units = Json.field "units" Json.int j in
      let* sched_len = Json.field "sched_len" Json.int j in
      let* area_mm2 = Json.field "area_mm2" Json.number j in
      Ok (Testability_snapshot { seq_depth; registers; units; sched_len; area_mm2 })
    | k -> Error (Printf.sprintf "unknown journal event %S" k)

  let is_decision_line line = String.starts_with ~prefix:"{\"j\":" line
end

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type span_rec = {
  w_name : string;
  w_cat : string;
  w_ts_ns : int64;
  w_dur_ns : int64;
  w_depth : int;
  w_args : (string * value) list;
}

type event =
  | Span_begin of { name : string; cat : string; ts_ns : int64; depth : int }
  | Span_end of {
      name : string;
      cat : string;
      ts_ns : int64;
      dur_ns : int64;
      depth : int;
      args : (string * value) list;
    }
  | Count of { name : string; delta : int; ts_ns : int64 }
  | Gauge of { name : string; v : float; ts_ns : int64 }
  | Sample of { name : string; v : float; ts_ns : int64 }
  | Instant of {
      name : string;
      cat : string;
      args : (string * value) list;
      ts_ns : int64;
    }
  | Decision of { d : Journal.event; ts_ns : int64 }
  | Worker_span of { worker : int; ticket : int; span : span_rec }

type sink = { emit : event -> unit; flush : unit -> unit }

(* Both of these are domain-local: a worker domain installing its
   tally-capture sink must not flip [enabled ()] in sibling domains,
   and concurrent spans must not share a depth counter. The [get] path
   sits under every [enabled ()] check, which the no-sink overhead
   budget test holds under 1 us/call. *)
let sinks : sink list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let depth : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let enabled () = Domain.DLS.get sinks <> []
let add_sink s = Domain.DLS.set sinks (Domain.DLS.get sinks @ [ s ])
let remove_sink s = Domain.DLS.set sinks (List.filter (fun s' -> s' != s) (Domain.DLS.get sinks))
let clear_sinks () = Domain.DLS.set sinks []

let broadcast ev = List.iter (fun s -> s.emit ev) (Domain.DLS.get sinks)

let with_sink s f =
  add_sink s;
  Fun.protect
    ~finally:(fun () ->
      remove_sink s;
      s.flush ())
    f

(* Run [f] exactly as a freshly spawned worker would: the caller's sink
   list is replaced by [ss] and the span depth restarts at zero, both
   restored on the way out. The inline pool executor uses this to give
   tasks worker-identical observability (capture sink only, or none)
   while running on the caller's own domain. *)
let in_fresh_context ss f =
  let outer_sinks = Domain.DLS.get sinks and outer_depth = Domain.DLS.get depth in
  Domain.DLS.set sinks ss;
  Domain.DLS.set depth 0;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set sinks outer_sinks;
      Domain.DLS.set depth outer_depth)
    f

type span = { mutable args : (string * value) list; live : bool }

let dummy = { args = []; live = false }

let set sp key v = if sp.live then sp.args <- (key, v) :: sp.args

let span ?(cat = "") ?(res = false) name f =
  if not (enabled ()) then f dummy
  else begin
    (* When [res] is requested, snapshot the GC before the span body and
       attach allocation deltas to the closing event. Kept out of the
       default path: quick_stat is cheap but not free, and most spans
       are inner-loop. *)
    let g0 =
      (* Gc.counters, not quick_stat: the latter's word counts exclude
         the current domain's un-flushed minor buffer. *)
      if res then Some (Gc.counters (), Gc.quick_stat ()) else None
    in
    let t0 = Clock.now_ns () in
    let d = Domain.DLS.get depth in
    Domain.DLS.set depth (d + 1);
    broadcast (Span_begin { name; cat; ts_ns = t0; depth = d });
    let sp = { args = []; live = true } in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set depth d;
        let t1 = Clock.now_ns () in
        (match g0 with
        | None -> ()
        | Some ((minor0, _, major0), g0) ->
          let minor1, _, major1 = Gc.counters () in
          let g1 = Gc.quick_stat () in
          (* prepended so the deltas render after user-set args *)
          sp.args <-
            ("gc_major_collections", Int (g1.major_collections - g0.major_collections))
            :: ("gc_minor_collections", Int (g1.minor_collections - g0.minor_collections))
            :: ("gc_major_words", Float (major1 -. major0))
            :: ("gc_minor_words", Float (minor1 -. minor0))
            :: sp.args);
        broadcast
          (Span_end
             {
               name;
               cat;
               ts_ns = t1;
               dur_ns = Int64.sub t1 t0;
               depth = d;
               args = List.rev sp.args;
             }))
      (fun () -> f sp)
  end

let count ?(by = 1) name =
  if enabled () then broadcast (Count { name; delta = by; ts_ns = Clock.now_ns () })

let gauge name v =
  if enabled () then broadcast (Gauge { name; v; ts_ns = Clock.now_ns () })

let sample name v =
  if enabled () then broadcast (Sample { name; v; ts_ns = Clock.now_ns () })

let instant ?(cat = "") ?(args = []) name =
  if enabled () then broadcast (Instant { name; cat; args; ts_ns = Clock.now_ns () })

let journal d =
  if enabled () then broadcast (Decision { d; ts_ns = Clock.now_ns () })

let worker_span ~worker ~ticket span =
  if enabled () then broadcast (Worker_span { worker; ticket; span })

(* ---- process resource sampler ----------------------------------------- *)

module Res = struct
  type snapshot = {
    utime_s : float;
    stime_s : float;
    rss_kb : int;
    max_rss_kb : int;
    minor_words : float;
    promoted_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    heap_words : int;
  }

  (* One pass over /proc/self/status for VmRSS (current) and VmHWM
     (peak); both reported by the kernel in kB. Returns (0, 0) where
     procfs is unavailable so callers never have to branch on the
     platform. *)
  let proc_rss_kb () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> (0, 0)
    | ic ->
      let rss = ref 0 and hwm = ref 0 in
      let value_of line =
        (* "VmRSS:     123456 kB" — extract the digit run *)
        let v = ref 0 and seen = ref false in
        String.iter
          (fun c ->
            if c >= '0' && c <= '9' then begin
              seen := true;
              v := (!v * 10) + (Char.code c - Char.code '0')
            end)
          line;
        if !seen then !v else 0
      in
      (try
         while true do
           let line = input_line ic in
           if String.starts_with ~prefix:"VmRSS:" line then rss := value_of line
           else if String.starts_with ~prefix:"VmHWM:" line then
             hwm := value_of line
         done
       with End_of_file -> ());
      close_in_noerr ic;
      (!rss, !hwm)

  let snapshot () =
    let g = Gc.quick_stat () in
    (* quick_stat's word counters lag until the next minor collection
       flushes the current domain's buffer; Gc.counters reads the live
       allocation pointers and stays cheap. *)
    let minor_words, promoted_words, major_words = Gc.counters () in
    let tm = Unix.times () in
    let rss_kb, max_rss_kb = proc_rss_kb () in
    {
      utime_s = tm.Unix.tms_utime;
      stime_s = tm.Unix.tms_stime;
      rss_kb;
      max_rss_kb;
      minor_words;
      promoted_words;
      major_words;
      minor_collections = g.minor_collections;
      major_collections = g.major_collections;
      heap_words = g.heap_words;
    }

  (* Delta from [a] to [b]: monotone fields subtract; point-in-time
     fields (rss, peak rss, heap size) take [b]'s value. *)
  let delta a b =
    {
      utime_s = b.utime_s -. a.utime_s;
      stime_s = b.stime_s -. a.stime_s;
      rss_kb = b.rss_kb;
      max_rss_kb = b.max_rss_kb;
      minor_words = b.minor_words -. a.minor_words;
      promoted_words = b.promoted_words -. a.promoted_words;
      major_words = b.major_words -. a.major_words;
      minor_collections = b.minor_collections - a.minor_collections;
      major_collections = b.major_collections - a.major_collections;
      heap_words = b.heap_words;
    }

  (* The "res." prefix marks process-resource gauges: they are
     host-dependent by nature, so every digest/determinism gate excludes
     them (and the pool's counter-equality contract never sees them,
     gauges merge by max). *)
  let is_gauge name = String.starts_with ~prefix:"res." name

  let gauges s =
    [
      ("res.utime_s", s.utime_s);
      ("res.stime_s", s.stime_s);
      ("res.rss_kb", float_of_int s.rss_kb);
      ("res.max_rss_kb", float_of_int s.max_rss_kb);
      ("res.gc.minor_words", s.minor_words);
      ("res.gc.major_words", s.major_words);
      ("res.gc.heap_words", float_of_int s.heap_words);
      ("res.gc.minor_collections", float_of_int s.minor_collections);
      ("res.gc.major_collections", float_of_int s.major_collections);
    ]

  let emit () =
    if enabled () then List.iter (fun (n, v) -> gauge n v) (gauges (snapshot ()))
end

(* ---- shared rendering helpers ---------------------------------------- *)

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let json_of_args args =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)

let us_of_ns ns = Int64.to_float ns /. 1000.0

(* ---- summary sink ----------------------------------------------------- *)

(* Fixed latency ladder shared by every "…seconds" sample: sub-ms cache
   hits at one end, multi-second cold synthesis runs at the other. The
   ladder is part of the exposition contract (DESIGN.md §7.1), so it is
   a constant, not a per-histogram choice. *)
let latency_buckets =
  [|
    0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
    2.5; 5.0; 10.0; 30.0;
  |]

(* Samples whose names end in "seconds" carry latencies and get
   fixed-bucket histogram treatment; everything else stays a summary. *)
let is_latency_name name = String.ends_with ~suffix:"seconds" name

module Summary = struct
  type span_stat = {
    spans : int;
    total_ns : int64;
    self_ns : int64;
    max_ns : int64;
  }

  type sample_stat = { n : int; sum : float; min_v : float; max_v : float }

  type frame = { mutable child_ns : int64 }

  type t = {
    spans_tbl : (string * string, span_stat) Hashtbl.t;
    mutable span_order : (string * string) list;  (* reversed first-seen *)
    mutable stack : frame list;
    counters_tbl : (string, int) Hashtbl.t;
    mutable counter_order : string list;
    gauges_tbl : (string, float) Hashtbl.t;
    mutable gauge_order : string list;
    samples_tbl : (string, sample_stat) Hashtbl.t;
    mutable sample_order : string list;
    (* per-bucket (non-cumulative) counts for latency samples; the
       extra final slot counts observations above the last bucket *)
    hists_tbl : (string, int array) Hashtbl.t;
  }

  let create () =
    {
      spans_tbl = Hashtbl.create 32;
      span_order = [];
      stack = [];
      counters_tbl = Hashtbl.create 32;
      counter_order = [];
      gauges_tbl = Hashtbl.create 16;
      gauge_order = [];
      samples_tbl = Hashtbl.create 16;
      sample_order = [];
      hists_tbl = Hashtbl.create 8;
    }

  let emit t = function
    | Span_begin _ -> t.stack <- { child_ns = 0L } :: t.stack
    | Span_end { name; cat; dur_ns; args = _; _ } ->
      let child_ns, rest =
        match t.stack with
        | fr :: rest -> (fr.child_ns, rest)
        | [] -> (0L, [])  (* unbalanced: sink installed mid-span *)
      in
      t.stack <- rest;
      (match t.stack with
      | parent :: _ -> parent.child_ns <- Int64.add parent.child_ns dur_ns
      | [] -> ());
      let self_ns = Int64.max 0L (Int64.sub dur_ns child_ns) in
      let key = (cat, name) in
      let prev =
        match Hashtbl.find_opt t.spans_tbl key with
        | Some st -> st
        | None ->
          t.span_order <- key :: t.span_order;
          { spans = 0; total_ns = 0L; self_ns = 0L; max_ns = 0L }
      in
      Hashtbl.replace t.spans_tbl key
        {
          spans = prev.spans + 1;
          total_ns = Int64.add prev.total_ns dur_ns;
          self_ns = Int64.add prev.self_ns self_ns;
          max_ns = Int64.max prev.max_ns dur_ns;
        }
    | Count { name; delta; _ } ->
      (match Hashtbl.find_opt t.counters_tbl name with
      | Some v -> Hashtbl.replace t.counters_tbl name (v + delta)
      | None ->
        t.counter_order <- name :: t.counter_order;
        Hashtbl.replace t.counters_tbl name delta)
    | Gauge { name; v; _ } ->
      if not (Hashtbl.mem t.gauges_tbl name) then
        t.gauge_order <- name :: t.gauge_order;
      Hashtbl.replace t.gauges_tbl name v
    | Sample { name; v; _ } ->
      let prev =
        match Hashtbl.find_opt t.samples_tbl name with
        | Some st -> st
        | None ->
          t.sample_order <- name :: t.sample_order;
          { n = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity }
      in
      Hashtbl.replace t.samples_tbl name
        {
          n = prev.n + 1;
          sum = prev.sum +. v;
          min_v = min prev.min_v v;
          max_v = max prev.max_v v;
        };
      if is_latency_name name then begin
        let nb = Array.length latency_buckets in
        let counts =
          match Hashtbl.find_opt t.hists_tbl name with
          | Some c -> c
          | None ->
            let c = Array.make (nb + 1) 0 in
            Hashtbl.add t.hists_tbl name c;
            c
        in
        let i = ref 0 in
        while !i < nb && v > latency_buckets.(!i) do incr i done;
        counts.(!i) <- counts.(!i) + 1
      end
    | Instant _ -> ()
    (* decisions are content, not time; worker spans already account
       their wall time inside the worker — folding them into the
       parent's self-time stack would double-book the pump wait *)
    | Decision _ | Worker_span _ -> ()

  let sink t = { emit = emit t; flush = (fun () -> ()) }

  let span_stats t =
    List.rev_map
      (fun key -> (key, Hashtbl.find t.spans_tbl key))
      t.span_order

  let seconds ns = Int64.to_float ns /. 1e9

  let phases t =
    let order = ref [] in
    let totals = Hashtbl.create 8 in
    List.iter
      (fun ((cat, _), st) ->
        if not (Hashtbl.mem totals cat) then order := cat :: !order;
        let prev = Option.value ~default:0L (Hashtbl.find_opt totals cat) in
        Hashtbl.replace totals cat (Int64.add prev st.self_ns))
      (span_stats t);
    List.rev_map (fun cat -> (cat, seconds (Hashtbl.find totals cat))) !order

  let total_seconds t =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (phases t)

  let counters t =
    List.rev_map (fun name -> (name, Hashtbl.find t.counters_tbl name)) t.counter_order

  let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counters_tbl name)

  let gauges t =
    List.rev_map (fun name -> (name, Hashtbl.find t.gauges_tbl name)) t.gauge_order

  let samples t =
    List.rev_map (fun name -> (name, Hashtbl.find t.samples_tbl name)) t.sample_order

  (* Latency samples only (see [is_latency_name]), first-seen order.
     Each array has [Array.length latency_buckets + 1] per-bucket
     counts, the last slot being the above-ladder overflow. *)
  let histograms t =
    List.filter_map
      (fun (name, _) ->
        Option.map (fun c -> (name, Array.copy c)) (Hashtbl.find_opt t.hists_tbl name))
      (samples t)

  let pp ppf t =
    let open Format in
    let total = total_seconds t in
    let phases = List.sort (fun (_, a) (_, b) -> compare b a) (phases t) in
    fprintf ppf "@[<v>per-phase breakdown (self time):@,";
    List.iter
      (fun (cat, s) ->
        let cat = if cat = "" then "(uncategorized)" else cat in
        fprintf ppf "  %-14s %8.3fs  %5.1f%%@," cat s
          (if total > 0.0 then 100.0 *. s /. total else 0.0))
      phases;
    fprintf ppf "  %-14s %8.3fs  100.0%%@," "total" total;
    let stats = span_stats t in
    if stats <> [] then begin
      fprintf ppf "@,spans:%34s%8s%10s%10s%10s@," "" "count" "total" "self" "max";
      List.iter
        (fun ((cat, name), st) ->
          fprintf ppf "  %-14s %-23s %8d %9.3fs %9.3fs %9.3fs@," cat name
            st.spans (seconds st.total_ns) (seconds st.self_ns)
            (seconds st.max_ns))
        stats
    end;
    let counters = counters t in
    if counters <> [] then begin
      fprintf ppf "@,counters:@,";
      List.iter (fun (name, v) -> fprintf ppf "  %-38s %12d@," name v) counters
    end;
    let gauges = gauges t in
    if gauges <> [] then begin
      fprintf ppf "@,gauges:@,";
      List.iter (fun (name, v) -> fprintf ppf "  %-38s %12.3f@," name v) gauges
    end;
    let samples = samples t in
    if samples <> [] then begin
      fprintf ppf "@,histograms:%29s%8s%12s%10s%10s@," "" "n" "mean" "min" "max";
      List.iter
        (fun (name, st) ->
          fprintf ppf "  %-38s %7d %11.3f %9.3f %9.3f@," name st.n
            (if st.n = 0 then 0.0 else st.sum /. float_of_int st.n)
            st.min_v st.max_v)
        samples
    end;
    fprintf ppf "@]"
end

(* ---- Prometheus text exposition ---------------------------------------- *)

module Metrics = struct
  (* Prometheus metric names admit [a-zA-Z_:][a-zA-Z0-9_:]*; our event
     names use dots. Map everything else to '_' and guard a leading
     digit. *)
  let metric_name name =
    let buf = Buffer.create (String.length name + 8) in
    String.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char buf c
        | '0' .. '9' ->
          if i = 0 then Buffer.add_char buf '_';
          Buffer.add_char buf c
        | _ -> Buffer.add_char buf '_')
      name;
    Buffer.contents buf

  let prom_float f =
    match Float.classify_float f with
    | FP_nan -> "NaN"
    | FP_infinite -> if f > 0.0 then "+Inf" else "-Inf"
    | FP_normal | FP_subnormal | FP_zero -> float_repr f

  let latency_buckets = latency_buckets

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let header buf name ~help ~typ =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)

  let sample_line buf name ?(labels = []) v =
    Buffer.add_string buf name;
    if labels <> [] then begin
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, lv) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s=\"%s\"" k (escape_label_value lv)))
        labels;
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (prom_float v);
    Buffer.add_char buf '\n'

  (* Render a [Summary] into Prometheus text exposition. Counters become
     monotone [_total] counters, gauges stay gauges, samples become
     summaries (min/max as extreme quantiles plus _sum/_count), per-phase
     self time is one labelled gauge family. When [res] is true a fresh
     resource snapshot is appended; recorded "res.*" gauges in the
     summary are dropped in favour of that snapshot so the file never
     carries two generations of the same gauge. *)
  let expose ?(res = true) summary =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (name, v) ->
        let m = "hlts_" ^ metric_name name ^ "_total" in
        header buf m ~help:(Printf.sprintf "Event counter %s." name) ~typ:"counter";
        sample_line buf m (float_of_int v))
      (Summary.counters summary);
    List.iter
      (fun (name, v) ->
        if not (res && Res.is_gauge name) then begin
          let m = "hlts_" ^ metric_name name in
          header buf m ~help:(Printf.sprintf "Gauge %s." name) ~typ:"gauge";
          sample_line buf m v
        end)
      (Summary.gauges summary);
    let hists = Summary.histograms summary in
    List.iter
      (fun (name, (st : Summary.sample_stat)) ->
        let m = "hlts_" ^ metric_name name in
        match List.assoc_opt name hists with
        | Some counts ->
          (* latency sample: proper cumulative-bucket histogram *)
          header buf m
            ~help:(Printf.sprintf "Latency histogram %s." name)
            ~typ:"histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i le ->
              cum := !cum + counts.(i);
              sample_line buf (m ^ "_bucket")
                ~labels:[ ("le", prom_float le) ]
                (float_of_int !cum))
            latency_buckets;
          sample_line buf (m ^ "_bucket")
            ~labels:[ ("le", "+Inf") ]
            (float_of_int st.n);
          sample_line buf (m ^ "_sum") st.sum;
          sample_line buf (m ^ "_count") (float_of_int st.n)
        | None ->
          header buf m ~help:(Printf.sprintf "Sample summary %s." name) ~typ:"summary";
          if st.n > 0 then begin
            sample_line buf m ~labels:[ ("quantile", "0") ] st.min_v;
            sample_line buf m ~labels:[ ("quantile", "1") ] st.max_v
          end;
          sample_line buf (m ^ "_sum") st.sum;
          sample_line buf (m ^ "_count") (float_of_int st.n))
      (Summary.samples summary);
    (match Summary.phases summary with
    | [] -> ()
    | phases ->
      let m = "hlts_phase_self_seconds" in
      header buf m ~help:"Self time per span category." ~typ:"gauge";
      List.iter
        (fun (cat, s) ->
          let cat = if cat = "" then "uncategorized" else cat in
          sample_line buf m ~labels:[ ("phase", cat) ] s)
        phases);
    if res then begin
      List.iter
        (fun (name, v) ->
          let m = "hlts_" ^ metric_name name in
          header buf m ~help:(Printf.sprintf "Process resource %s." name) ~typ:"gauge";
          sample_line buf m v)
        (Res.gauges (Res.snapshot ()))
    end;
    Buffer.contents buf
end

(* ---- journal sink ----------------------------------------------------- *)

(* A Decision line carries a 0-based sequence number and no timestamp,
   so those lines are byte-identical at every [-j N]; every other line
   keeps its timestamp for the timing context. *)
let journal_sink write =
  let seq = ref 0 in
  let line fields =
    write (Json.to_string (Json.Obj fields));
    write "\n"
  in
  let emit = function
    | Span_begin { name; cat; ts_ns; depth } ->
      line
        [
          ("ev", Json.Str "begin"); ("name", Json.Str name);
          ("cat", Json.Str cat); ("ts_us", Json.Float (us_of_ns ts_ns));
          ("depth", Json.Int depth);
        ]
    | Span_end { name; cat; ts_ns; dur_ns; depth; args } ->
      line
        [
          ("ev", Json.Str "end"); ("name", Json.Str name);
          ("cat", Json.Str cat); ("ts_us", Json.Float (us_of_ns ts_ns));
          ("dur_us", Json.Float (us_of_ns dur_ns)); ("depth", Json.Int depth);
          ("args", json_of_args args);
        ]
    | Count { name; delta; ts_ns } ->
      line
        [
          ("ev", Json.Str "count"); ("name", Json.Str name);
          ("delta", Json.Int delta); ("ts_us", Json.Float (us_of_ns ts_ns));
        ]
    | Gauge { name; v; ts_ns } ->
      line
        [
          ("ev", Json.Str "gauge"); ("name", Json.Str name);
          ("value", Json.Float v); ("ts_us", Json.Float (us_of_ns ts_ns));
        ]
    | Sample { name; v; ts_ns } ->
      line
        [
          ("ev", Json.Str "sample"); ("name", Json.Str name);
          ("value", Json.Float v); ("ts_us", Json.Float (us_of_ns ts_ns));
        ]
    | Instant { name; cat; args; ts_ns } ->
      line
        [
          ("ev", Json.Str "instant"); ("name", Json.Str name);
          ("cat", Json.Str cat); ("ts_us", Json.Float (us_of_ns ts_ns));
          ("args", json_of_args args);
        ]
    | Decision { d; _ } ->
      let fields =
        match Journal.encode d with
        | Json.Obj fields -> fields
        | _ -> assert false (* encode always yields an object *)
      in
      line (("j", Json.Int !seq) :: fields);
      incr seq
    | Worker_span { worker; ticket; span } ->
      line
        [
          ("ev", Json.Str "wspan"); ("worker", Json.Int worker);
          ("ticket", Json.Int ticket); ("name", Json.Str span.w_name);
          ("cat", Json.Str span.w_cat);
          ("ts_us", Json.Float (us_of_ns span.w_ts_ns));
          ("dur_us", Json.Float (us_of_ns span.w_dur_ns));
          ("depth", Json.Int span.w_depth); ("args", json_of_args span.w_args);
        ]
  in
  { emit; flush = (fun () -> ()) }

(* ---- heartbeat sink ----------------------------------------------------- *)

(* Appends one JSON object per line, at most one every [interval_ms],
   snapshotting counters, gauges, and process resources so an external
   tail (hlts top) can render live progress. Each snapshot is written
   with a single [write] call so concurrent readers never see a torn
   line. The final snapshot (flagged "final") is emitted on flush. *)
let heartbeat_sink ?(interval_ms = 100) write =
  let summary = Summary.create () in
  let t0 = Clock.now_ns () in
  let seq = ref 0 in
  let last = ref 0L in
  let finalized = ref false in
  let interval_ns = Int64.of_int (interval_ms * 1_000_000) in
  let snapshot ~final () =
    let res =
      Res.gauges (Res.snapshot ())
      |> List.map (fun (name, v) ->
             (* strip the "res." prefix inside the dedicated object *)
             (String.sub name 4 (String.length name - 4), Json.Float v))
    in
    let counters =
      List.map (fun (n, v) -> (n, Json.Int v)) (Summary.counters summary)
    in
    let gauges =
      Summary.gauges summary
      |> List.filter (fun (n, _) -> not (Res.is_gauge n))
      |> List.map (fun (n, v) -> (n, Json.Float v))
    in
    let fields =
      [
        ("hb", Json.Int !seq);
        ("t_s", Json.Float (Clock.seconds_since t0));
      ]
      @ (if final then [ ("final", Json.Bool true) ] else [])
      @ [
          ("res", Json.Obj res);
          ("counters", Json.Obj counters);
          ("gauges", Json.Obj gauges);
        ]
    in
    incr seq;
    write (Json.to_string (Json.Obj fields) ^ "\n")
  in
  let emit ev =
    Summary.emit summary ev;
    let now = Clock.now_ns () in
    if !last = 0L || Int64.sub now !last >= interval_ns then begin
      last := now;
      snapshot ~final:false ()
    end
  in
  let flush () =
    if not !finalized then begin
      finalized := true;
      snapshot ~final:true ()
    end
  in
  { emit; flush }

(* ---- request-scoped trace context -------------------------------------- *)

module Trace_ctx = struct
  type t = { trace_id : string; span_id : string; sampled : bool }

  (* splitmix64, seeded once per process from the monotonic clock and
     the pid. Trace ids only need to be unique, never reproducible, so
     this deliberately does NOT ride Util.Rng (obs is a leaf library
     and trace ids must not perturb any seeded stream). *)
  let prng = ref 0L
  let seeded = ref false

  let next64 () =
    if not !seeded then begin
      seeded := true;
      prng :=
        Int64.logxor (Clock.now_ns ())
          (Int64.mul (Int64.of_int (Unix.getpid ())) 0x9E3779B97F4A7C15L)
    end;
    prng := Int64.add !prng 0x9E3779B97F4A7C15L;
    let z = !prng in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let hex64 v = Printf.sprintf "%016Lx" v

  let generate ?(sampled = true) () =
    {
      trace_id = hex64 (next64 ()) ^ hex64 (next64 ());
      span_id = hex64 (next64 ());
      sampled;
    }

  let child t = { t with span_id = hex64 (next64 ()) }

  let is_hex s =
    String.for_all
      (fun c -> match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
      s

  let valid t =
    String.length t.trace_id = 32
    && is_hex t.trace_id
    && String.length t.span_id = 16
    && is_hex t.span_id

  let to_json t =
    Json.Obj
      [
        ("id", Json.Str t.trace_id); ("span", Json.Str t.span_id);
        ("sampled", Json.Bool t.sampled);
      ]

  let of_json j =
    match (Json.member "id" j, Json.member "span" j) with
    | Some (Json.Str trace_id), Some (Json.Str span_id) ->
      let sampled =
        match Json.member "sampled" j with
        | Some (Json.Bool b) -> b
        | Some _ | None -> true
      in
      let t = { trace_id; span_id; sampled } in
      if valid t then Some t else None
    | _ -> None

  (* Tolerant by design: frames from clients that predate tracing carry
     no "trace" field, and foreign callers may send malformed ones —
     both decode to None and the request proceeds untraced. *)
  let of_envelope j =
    match Json.member "trace" j with
    | Some tj -> of_json tj
    | None -> None

  (* -- shipped spans ---------------------------------------------------- *)

  type span = {
    sp_lane : int;
    sp_label : string;
    sp_name : string;
    sp_cat : string;
    sp_ts_ns : int64;
    sp_dur_ns : int64;
    sp_args : (string * value) list;
  }

  let span_to_json s =
    Json.Obj
      [
        ("lane", Json.Int s.sp_lane); ("label", Json.Str s.sp_label);
        ("name", Json.Str s.sp_name); ("cat", Json.Str s.sp_cat);
        ("ts_ns", Json.Int (Int64.to_int s.sp_ts_ns));
        ("dur_ns", Json.Int (Int64.to_int s.sp_dur_ns));
        ("args", json_of_args s.sp_args);
      ]

  let value_of_json = function
    | Json.Int i -> Some (Int i)
    | Json.Float f -> Some (Float f)
    | Json.Str s -> Some (Str s)
    | Json.Bool b -> Some (Bool b)
    | Json.Null | Json.List _ | Json.Obj _ -> None

  let span_of_json j =
    Result.to_option
      (let* sp_lane = Json.field "lane" Json.int j in
       let* sp_label = Json.field "label" Json.string j in
       let* sp_name = Json.field "name" Json.string j in
       let* sp_cat = Json.field "cat" Json.string j in
       let* ts = Json.field "ts_ns" Json.int j in
       let* dur = Json.field "dur_ns" Json.int j in
       let sp_args =
         match Json.member "args" j with
         | Some (Json.Obj fields) ->
           List.filter_map
             (fun (k, v) -> Option.map (fun v -> (k, v)) (value_of_json v))
             fields
         | _ -> []
       in
       Ok
         {
           sp_lane; sp_label; sp_name; sp_cat;
           sp_ts_ns = Int64.of_int ts;
           sp_dur_ns = Int64.of_int dur;
           sp_args;
         })

  (* A capture sink that turns the process's own Span_end events into
     lane [lane] spans and pool Worker_span events into lanes
     [lane + 1 + worker], for shipping with a reply. *)
  let collector ~lane ~label () =
    let acc = ref [] in
    let emit = function
      | Span_end { name; cat; ts_ns; dur_ns; args; _ } ->
        acc :=
          {
            sp_lane = lane; sp_label = label; sp_name = name; sp_cat = cat;
            sp_ts_ns = ts_ns; sp_dur_ns = dur_ns; sp_args = args;
          }
          :: !acc
      | Worker_span { worker; ticket; span } ->
        acc :=
          {
            sp_lane = lane + 1 + worker;
            sp_label = Printf.sprintf "pool worker %d" worker;
            sp_name = span.w_name;
            sp_cat = span.w_cat;
            sp_ts_ns = span.w_ts_ns;
            sp_dur_ns = span.w_dur_ns;
            sp_args = ("ticket", Int ticket) :: span.w_args;
          }
          :: !acc
      | Span_begin _ | Count _ | Gauge _ | Sample _ | Instant _ | Decision _ ->
        ()
    in
    ({ emit; flush = (fun () -> ()) }, fun () -> List.rev !acc)

  (* -- the Chrome renderer ------------------------------------------------ *)

  (* One Chrome record before rendering: its lane, its start and the
     fields that follow name/ph/ts/pid/tid. *)
  type record = {
    r_lane : int;
    r_label : string;
    r_name : string;
    r_ph : string;
    r_ts_ns : int64;
    r_rest : (string * Json.t) list;
  }

  let category cat = if cat = "" then "default" else cat

  let record_of_span s =
    {
      r_lane = s.sp_lane;
      r_label = s.sp_label;
      r_name = s.sp_name;
      r_ph = "X";
      r_ts_ns = Int64.sub s.sp_ts_ns s.sp_dur_ns;
      r_rest =
        [
          ("dur", Json.Float (us_of_ns s.sp_dur_ns));
          ("cat", Json.Str (category s.sp_cat)); ("args", json_of_args s.sp_args);
        ];
    }

  (* Hands [f] the trace events in order: timestamps rebased to the
     earliest record, so every [ts] is >= 0, and each lane's
     process_name before its first record. *)
  let render f records =
    let t0 =
      List.fold_left (fun acc r -> Int64.min acc r.r_ts_ns) Int64.max_int records
    in
    let seen_lanes : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun r ->
        if not (Hashtbl.mem seen_lanes r.r_lane) then begin
          Hashtbl.add seen_lanes r.r_lane ();
          f
            (Json.Obj
               [
                 ("name", Json.Str "process_name"); ("ph", Json.Str "M");
                 ("pid", Json.Int r.r_lane); ("tid", Json.Int 1);
                 ("args", Json.Obj [ ("name", Json.Str r.r_label) ]);
               ])
        end;
        f
          (Json.Obj
             (("name", Json.Str r.r_name) :: ("ph", Json.Str r.r_ph)
             :: ("ts", Json.Float (us_of_ns (Int64.sub r.r_ts_ns t0)))
             :: ("pid", Json.Int r.r_lane) :: ("tid", Json.Int 1) :: r.r_rest)))
      records

  let chrome_trace ?(meta = []) spans =
    let events = ref [] in
    render (fun e -> events := e :: !events) (List.map record_of_span spans);
    Json.Obj
      (("traceEvents", Json.List (List.rev !events))
      :: ("displayTimeUnit", Json.Str "ms")
      :: meta)
end

(* ---- Chrome trace_event sink ------------------------------------------- *)

(* The collector's capture on lane 1, plus what only a whole-process
   trace shows: counter tracks and instants, decisions among them. *)
let chrome_sink write =
  let lane = 1 and label = "hlts (parent)" in
  let spans, captured = Trace_ctx.collector ~lane ~label () in
  let marks = ref [] in
  let totals : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let flushed = ref false in
  let mark name ph ts_ns rest =
    marks :=
      { Trace_ctx.r_lane = lane; r_label = label; r_name = name; r_ph = ph;
        r_ts_ns = ts_ns; r_rest = rest }
      :: !marks
  in
  let counter name ts_ns v =
    mark name "C" ts_ns [ ("args", Json.Obj [ ("value", Json.Float v) ]) ]
  in
  let instant name cat ts_ns args =
    mark name "i" ts_ns
      [ ("cat", Json.Str cat); ("s", Json.Str "t"); ("args", args) ]
  in
  let emit ev =
    spans.emit ev;
    match ev with
    | Count { name; delta; ts_ns } ->
      let total =
        float_of_int delta
        +. Option.value ~default:0.0 (Hashtbl.find_opt totals name)
      in
      Hashtbl.replace totals name total;
      counter name ts_ns total
    | Gauge { name; v; ts_ns } | Sample { name; v; ts_ns } -> counter name ts_ns v
    | Instant { name; cat; args; ts_ns } ->
      instant name (Trace_ctx.category cat) ts_ns (json_of_args args)
    | Decision { d; ts_ns } ->
      let kind, payload =
        match Journal.encode d with
        | Json.Obj (("ev", Json.Str kind) :: rest) -> (kind, rest)
        | _ -> ("decision", [])
      in
      instant ("journal." ^ kind) "journal" ts_ns (Json.Obj payload)
    | Span_begin _ | Span_end _ | Worker_span _ -> ()
  in
  (* The document is written one event per line, never built whole: a
     whole-run trace is large. *)
  let flush () =
    if not !flushed then begin
      flushed := true;
      let sep = ref "" in
      write "{\"traceEvents\":[\n";
      Trace_ctx.render
        (fun e ->
          write !sep;
          write (Json.to_string e);
          sep := ",\n")
        (List.map Trace_ctx.record_of_span (captured ()) @ List.rev !marks);
      write "\n],\"displayTimeUnit\":\"ms\"}\n"
    end
  in
  { emit; flush }
