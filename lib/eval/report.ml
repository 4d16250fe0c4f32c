module Json = Hlts_obs.Json
module Journal = Hlts_obs.Journal

(* --- accumulated model --------------------------------------------------- *)

type committed = {
  c_description : string;
  c_reason : string;
  c_delta_e : int;
  c_delta_h : float;
  c_cost : float;
}

type snapshot = {
  s_seq_depth : float;
  s_registers : int;
  s_units : int;
  s_sched_len : int;
  s_area_mm2 : float;
}

type iter_row = {
  iteration : int;
  pool : int;
  mutable scored : int;
  mutable rej_infeasible : int;
  mutable rej_over_budget : int;
  mutable rej_not_improving : int;
  mutable rej_not_selected : int;
  mutable resched_sr1 : int;
  mutable resched_sr2 : int;
  mutable moved_ops : int;
  mutable committed : committed option;
  mutable snapshot : snapshot option;
}

type worker_lane = {
  w_index : int;
  mutable w_spans : int;
  mutable w_busy_us : float;  (** at the lane's outermost depth *)
  mutable w_min_depth : int;
  mutable w_first_us : float;
  mutable w_last_us : float;
}

type t = {
  mutable meta : (string * string) list;  (** run.meta args, if present *)
  mutable iters : iter_row list;  (** reversed while building *)
  phase_order : string list ref;
  phases : (string, float) Hashtbl.t;  (** cat -> self us *)
  workers : (int, worker_lane) Hashtbl.t;
  mutable depth_series : (float * float) list;  (** (ts us, queue depth), reversed *)
  res_series : (string, (float * float) list) Hashtbl.t;
      (** resource gauge -> (ts us, value) points, reversed while building *)
  mutable res_order : string list;  (** reversed first-seen *)
  mutable ts_min : float;
  mutable ts_max : float;
  mutable decisions : int;
  mutable skipped : int;  (** unparseable lines *)
}

let create () =
  {
    meta = [];
    iters = [];
    phase_order = ref [];
    phases = Hashtbl.create 8;
    workers = Hashtbl.create 8;
    depth_series = [];
    res_series = Hashtbl.create 16;
    res_order = [];
    ts_min = infinity;
    ts_max = neg_infinity;
    decisions = 0;
    skipped = 0;
  }

let see_ts t ts =
  if ts < t.ts_min then t.ts_min <- ts;
  if ts > t.ts_max then t.ts_max <- ts

let current_iter t =
  match t.iters with
  | row :: _ -> Some row
  | [] -> None

let apply_decision t (d : Journal.event) =
  t.decisions <- t.decisions + 1;
  match d with
  | Journal.Iter_begin { iteration; pool } ->
    t.iters <-
      {
        iteration;
        pool;
        scored = 0;
        rej_infeasible = 0;
        rej_over_budget = 0;
        rej_not_improving = 0;
        rej_not_selected = 0;
        resched_sr1 = 0;
        resched_sr2 = 0;
        moved_ops = 0;
        committed = None;
        snapshot = None;
      }
      :: t.iters
  | Journal.Candidate_scored _ ->
    Option.iter (fun r -> r.scored <- r.scored + 1) (current_iter t)
  | Journal.Candidate_rejected { reason; _ } ->
    Option.iter
      (fun r ->
        match reason with
        | Journal.Infeasible -> r.rej_infeasible <- r.rej_infeasible + 1
        | Journal.Over_budget -> r.rej_over_budget <- r.rej_over_budget + 1
        | Journal.Not_improving -> r.rej_not_improving <- r.rej_not_improving + 1
        | Journal.Not_selected -> r.rej_not_selected <- r.rej_not_selected + 1)
      (current_iter t)
  | Journal.Reschedule { strategy; moved_ops } ->
    Option.iter
      (fun r ->
        (match strategy with
        | Journal.SR1 -> r.resched_sr1 <- r.resched_sr1 + 1
        | Journal.SR2 -> r.resched_sr2 <- r.resched_sr2 + 1);
        r.moved_ops <- r.moved_ops + List.length moved_ops)
      (current_iter t)
  | Journal.Merge_committed { description; reason; delta_e; delta_h; cost } ->
    Option.iter
      (fun r ->
        r.committed <-
          Some
            {
              c_description = description;
              c_reason = reason;
              c_delta_e = delta_e;
              c_delta_h = delta_h;
              c_cost = cost;
            })
      (current_iter t)
  | Journal.Testability_snapshot
      { seq_depth; registers; units; sched_len; area_mm2 } ->
    Option.iter
      (fun r ->
        r.snapshot <-
          Some
            {
              s_seq_depth = seq_depth;
              s_registers = registers;
              s_units = units;
              s_sched_len = sched_len;
              s_area_mm2 = area_mm2;
            })
      (current_iter t)

(* Self-time per category, replayed from begin/end lines exactly like
   Obs.Summary: a stack of child-time accumulators, self = dur - child. *)
let span_stack : float list ref = ref []

let apply_phase t ~cat ~dur_us =
  let child, rest =
    match !span_stack with c :: rest -> (c, rest) | [] -> (0.0, [])
  in
  span_stack :=
    (match rest with c :: tl -> (c +. dur_us) :: tl | [] -> []);
  let self = Float.max 0.0 (dur_us -. child) in
  let cat = if cat = "" then "(uncategorized)" else cat in
  if not (Hashtbl.mem t.phases cat) then
    t.phase_order := cat :: !(t.phase_order);
  Hashtbl.replace t.phases cat
    (self +. Option.value ~default:0.0 (Hashtbl.find_opt t.phases cat))

let worker_lane t index =
  match Hashtbl.find_opt t.workers index with
  | Some w -> w
  | None ->
    let w =
      {
        w_index = index;
        w_spans = 0;
        w_busy_us = 0.0;
        w_min_depth = max_int;
        w_first_us = infinity;
        w_last_us = neg_infinity;
      }
    in
    Hashtbl.add t.workers index w;
    w

let fstr name j =
  match Json.member name j with
  | Some (Json.Str s) -> Some s
  | _ -> None

let fnum name j =
  match Json.member name j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let fint name j =
  match Json.member name j with Some (Json.Int i) -> Some i | _ -> None

let apply_line t line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Json.of_string line with
    | Error _ -> t.skipped <- t.skipped + 1
    | Ok j ->
      if Journal.is_decision_line line then
        match Journal.decode j with
        | Ok d -> apply_decision t d
        | Error _ -> t.skipped <- t.skipped + 1
      else begin
        (match fnum "ts_us" j with Some ts -> see_ts t ts | None -> ());
        match fstr "ev" j with
        | Some "begin" -> span_stack := 0.0 :: !span_stack
        | Some "end" ->
          let cat = Option.value ~default:"" (fstr "cat" j) in
          let dur_us = Option.value ~default:0.0 (fnum "dur_us" j) in
          apply_phase t ~cat ~dur_us
        | Some "gauge" -> begin
          let has_suffix ~suffix name =
            let ls = String.length suffix and l = String.length name in
            l >= ls && String.sub name (l - ls) ls = suffix
          in
          let is_resource name =
            (String.length name >= 4 && String.sub name 0 4 = "res.")
            || has_suffix ~suffix:".workers_rss_kb" name
            || has_suffix ~suffix:".workers_cpu_s" name
            || has_suffix ~suffix:".workers_tasks" name
          in
          match fstr "name" j, fnum "ts_us" j, fnum "value" j with
          | Some name, Some ts, Some v when has_suffix ~suffix:".queue_depth" name
            -> t.depth_series <- (ts, v) :: t.depth_series
          | Some name, Some ts, Some v when is_resource name ->
            let prev =
              match Hashtbl.find_opt t.res_series name with
              | Some pts -> pts
              | None ->
                t.res_order <- name :: t.res_order;
                []
            in
            Hashtbl.replace t.res_series name ((ts, v) :: prev)
          | _ -> ()
        end
        | Some "wspan" -> begin
          match fint "worker" j with
          | None -> ()
          | Some index ->
            let w = worker_lane t index in
            let dur = Option.value ~default:0.0 (fnum "dur_us" j) in
            let ts_end = Option.value ~default:0.0 (fnum "ts_us" j) in
            let depth = Option.value ~default:0 (fint "depth" j) in
            w.w_spans <- w.w_spans + 1;
            (* busy time counts only the lane's outermost spans: nested
               ones are already inside them *)
            if depth < w.w_min_depth then begin
              w.w_min_depth <- depth;
              w.w_busy_us <- dur
            end
            else if depth = w.w_min_depth then w.w_busy_us <- w.w_busy_us +. dur;
            if ts_end -. dur < w.w_first_us then w.w_first_us <- ts_end -. dur;
            if ts_end > w.w_last_us then w.w_last_us <- ts_end;
            see_ts t ts_end
        end
        | Some "instant" ->
          if fstr "name" j = Some "run.meta" then begin
            match Json.member "args" j with
            | Some (Json.Obj fields) ->
              t.meta <-
                List.map
                  (fun (k, v) ->
                    ( k,
                      match v with
                      | Json.Str s -> s
                      | other -> Json.to_string other ))
                  fields
            | _ -> ()
          end
        | _ -> ()
      end

let parse lines =
  span_stack := [];
  let t = create () in
  List.iter (apply_line t) lines;
  t.iters <- List.rev t.iters;
  t.depth_series <- List.rev t.depth_series;
  t.res_order <- List.rev t.res_order;
  List.iter
    (fun name ->
      Hashtbl.replace t.res_series name
        (List.rev (Hashtbl.find t.res_series name)))
    t.res_order;
  t

let read_file file =
  Result.map
    (fun (lines, torn) ->
      let t = parse lines in
      t.skipped <- t.skipped + torn;
      t)
    (Top.read_lines file)

(* --- HTML rendering ------------------------------------------------------ *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_f f =
  if Float.is_integer f && Float.abs f < 1e9 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

(* One polyline chart. [series]: (label, css color, (x, y) points). Axes
   are auto-scaled; min/max labels annotate the corners. *)
let svg_chart ~title ~width ~height series =
  let series = List.filter (fun (_, _, pts) -> pts <> []) series in
  if series = [] then ""
  else begin
    let pts_all = List.concat_map (fun (_, _, pts) -> pts) series in
    let xs = List.map fst pts_all and ys = List.map snd pts_all in
    let fmin = List.fold_left Float.min infinity in
    let fmax = List.fold_left Float.max neg_infinity in
    let x0 = fmin xs and x1 = fmax xs in
    let y0 = fmin ys and y1 = fmax ys in
    let xspan = if x1 -. x0 <= 0.0 then 1.0 else x1 -. x0 in
    let yspan = if y1 -. y0 <= 0.0 then 1.0 else y1 -. y0 in
    let pad = 34.0 in
    let w = float_of_int width and h = float_of_int height in
    let px x = pad +. ((x -. x0) /. xspan *. (w -. (2.0 *. pad))) in
    let py y = h -. pad -. ((y -. y0) /. yspan *. (h -. (2.0 *. pad))) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "<figure><figcaption>%s</figcaption><svg viewBox=\"0 0 %d %d\" \
          width=\"%d\" height=\"%d\" role=\"img\">\n"
         (esc title) width height width height);
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
          class=\"plot\"/>\n"
         pad pad
         (w -. (2.0 *. pad))
         (h -. (2.0 *. pad)));
    List.iter
      (fun (label, color, pts) ->
        let path =
          String.concat " "
            (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) pts)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
              stroke-width=\"1.5\"><title>%s</title></polyline>\n"
             path color (esc label)))
      series;
    (* corner labels *)
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%.1f\" y=\"%.1f\" class=\"ax\">%s</text>\n\
          <text x=\"%.1f\" y=\"%.1f\" class=\"ax\">%s</text>\n\
          <text x=\"%.1f\" y=\"%.1f\" class=\"ax\">%s</text>\n\
          <text x=\"%.1f\" y=\"%.1f\" class=\"ax\" text-anchor=\"end\">%s</text>\n"
         2.0 (py y0) (fmt_f y0) 2.0
         (py y1 +. 10.0)
         (fmt_f y1) (px x0) (h -. 8.0) (fmt_f x0) (px x1) (h -. 8.0) (fmt_f x1));
    (* legend *)
    List.iteri
      (fun i (label, color, _) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%.1f\" y=\"%.1f\" width=\"10\" height=\"10\" \
              fill=\"%s\"/><text x=\"%.1f\" y=\"%.1f\" class=\"ax\">%s</text>\n"
             (pad +. (float_of_int i *. 120.0))
             6.0 color
             (pad +. (float_of_int i *. 120.0) +. 14.0)
             15.0 (esc label)))
      series;
    Buffer.add_string buf "</svg></figure>\n";
    Buffer.contents buf
  end

let style =
  {css|
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 70em;
       color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; font-size: 0.85em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f0f0f4; } td.l, th.l { text-align: left; }
figure { margin: 1em 0; } figcaption { font-size: 0.9em; color: #555; }
svg { background: #fff; } svg .plot { fill: #fafafc; stroke: #ddd; }
svg .ax { font-size: 9px; fill: #666; }
.bar { fill: #4a7ebb; } .barbg { fill: #eee; }
.muted { color: #777; font-size: 0.85em; }
|css}

let section_meta buf t =
  if t.meta <> [] then begin
    Buffer.add_string buf "<h2>Run</h2><table>\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "<tr><th class=\"l\">%s</th><td class=\"l\">%s</td></tr>\n"
             (esc k) (esc v)))
      t.meta;
    Buffer.add_string buf "</table>\n"
  end

let section_phases buf t =
  let phases =
    List.rev_map
      (fun cat -> (cat, Hashtbl.find t.phases cat))
      !(t.phase_order)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  if phases <> [] then begin
    let total = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
    Buffer.add_string buf
      "<h2>Per-phase time (self time; phases sum to the total)</h2>\n\
       <table><tr><th class=\"l\">phase</th><th>self</th><th>share</th></tr>\n";
    List.iter
      (fun (cat, us) ->
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td class=\"l\">%s</td><td>%.3f s</td><td>%.1f%%</td></tr>\n"
             (esc cat) (us /. 1e6)
             (if total > 0.0 then 100.0 *. us /. total else 0.0)))
      phases;
    Buffer.add_string buf
      (Printf.sprintf
         "<tr><th class=\"l\">total</th><th>%.3f s</th><th>100.0%%</th></tr></table>\n"
         (total /. 1e6))
  end

let section_trajectory buf t =
  let committed =
    List.filter_map
      (fun r -> Option.map (fun c -> (r, c)) r.committed)
      t.iters
  in
  if committed <> [] then begin
    let xy f = List.map (fun (r, c) -> (float_of_int r.iteration, f r c)) committed in
    Buffer.add_string buf "<h2>Merge trajectory</h2>\n";
    Buffer.add_string buf
      (svg_chart ~title:"per-iteration cost = alpha*dE + beta*dH (units)"
         ~width:640 ~height:220
         [ ("cost", "#b33", xy (fun _ c -> c.c_cost)) ]);
    Buffer.add_string buf
      (svg_chart ~title:"per-iteration dE (steps) and dH (mm2)" ~width:640
         ~height:220
         [
           ("dE", "#4a7ebb", xy (fun _ c -> float_of_int c.c_delta_e));
           ("dH", "#3a8a4d", xy (fun _ c -> c.c_delta_h));
         ]);
    let snaps =
      List.filter_map
        (fun r -> Option.map (fun s -> (float_of_int r.iteration, s)) r.snapshot)
        t.iters
    in
    if snaps <> [] then
      Buffer.add_string buf
        (svg_chart ~title:"design evolution: area (mm2) and sequential depth"
           ~width:640 ~height:220
           [
             ("area", "#4a7ebb", List.map (fun (x, s) -> (x, s.s_area_mm2)) snaps);
             ( "seq depth",
               "#b38a2d",
               List.map (fun (x, s) -> (x, s.s_seq_depth)) snaps );
           ])
  end

let section_table buf t =
  if t.iters <> [] then begin
    Buffer.add_string buf
      "<h2>Testability-balance evolution</h2>\n\
       <table><tr><th>iter</th><th>pool</th><th>scored</th>\
       <th>infeas</th><th>budget</th><th>cost&ge;0</th><th>lost</th>\
       <th>SR1</th><th>SR2</th><th>moved</th>\
       <th class=\"l\">committed merger</th><th class=\"l\">why</th>\
       <th>dE</th><th>dH</th><th>cost</th>\
       <th>seq.depth</th><th>regs</th><th>units</th><th>csteps</th>\
       <th>area</th></tr>\n";
    List.iter
      (fun r ->
        let c d = Option.map d r.committed and s d = Option.map d r.snapshot in
        let str = function Some s -> s | None -> "&mdash;" in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>\
              <td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>\
              <td class=\"l\">%s</td><td class=\"l\">%s</td>\
              <td>%s</td><td>%s</td><td>%s</td>\
              <td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
             r.iteration r.pool r.scored r.rej_infeasible r.rej_over_budget
             r.rej_not_improving r.rej_not_selected r.resched_sr1 r.resched_sr2
             r.moved_ops
             (str (c (fun c -> esc c.c_description)))
             (str (c (fun c -> esc c.c_reason)))
             (str (c (fun c -> string_of_int c.c_delta_e)))
             (str (c (fun c -> Printf.sprintf "%.4f" c.c_delta_h)))
             (str (c (fun c -> Printf.sprintf "%.3f" c.c_cost)))
             (str (s (fun s -> Printf.sprintf "%.2f" s.s_seq_depth)))
             (str (s (fun s -> string_of_int s.s_registers)))
             (str (s (fun s -> string_of_int s.s_units)))
             (str (s (fun s -> string_of_int s.s_sched_len)))
             (str (s (fun s -> Printf.sprintf "%.3f" s.s_area_mm2)))))
      t.iters;
    Buffer.add_string buf "</table>\n"
  end

let section_pool buf t =
  let lanes =
    Hashtbl.fold (fun _ w acc -> w :: acc) t.workers []
    |> List.sort (fun a b -> compare a.w_index b.w_index)
  in
  if lanes <> [] then begin
    let wall = t.ts_max -. t.ts_min in
    Buffer.add_string buf
      "<h2>Pool utilization</h2>\n\
       <table><tr><th>worker</th><th>spans</th><th>busy</th>\
       <th>utilization</th><th class=\"l\"></th></tr>\n";
    List.iter
      (fun w ->
        let util =
          if wall > 0.0 then Float.min 1.0 (w.w_busy_us /. wall) else 0.0
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>%d</td><td>%d</td><td>%.3f s</td><td>%.1f%%</td>\
              <td class=\"l\"><svg width=\"200\" height=\"12\">\
              <rect class=\"barbg\" width=\"200\" height=\"12\"/>\
              <rect class=\"bar\" width=\"%.1f\" height=\"12\"/></svg></td></tr>\n"
             w.w_index w.w_spans (w.w_busy_us /. 1e6) (100.0 *. util)
             (200.0 *. util)))
      lanes;
    Buffer.add_string buf "</table>\n"
  end;
  if t.depth_series <> [] then begin
    let t0 = if t.ts_min = infinity then 0.0 else t.ts_min in
    let rel = List.map (fun (ts, v) -> ((ts -. t0) /. 1e6, v)) t.depth_series in
    Buffer.add_string buf
      (svg_chart ~title:"pool queue depth (in-flight tasks) over time (s)"
         ~width:640 ~height:160
         [ ("queue depth", "#4a7ebb", rel) ])
  end

(* Memory/GC panel from the "res.*" (parent process) and
   "*.workers_*" (pool fleet) gauge series the run recorded. All
   timestamps are rebased to seconds from the first event. *)
let section_memory buf t =
  if t.res_order <> [] then begin
    let t0 = if t.ts_min = infinity then 0.0 else t.ts_min in
    let series ?(scale = 1.0) name =
      match Hashtbl.find_opt t.res_series name with
      | None | Some [] -> None
      | Some pts ->
        Some (List.map (fun (ts, v) -> ((ts -. t0) /. 1e6, v *. scale)) pts)
    in
    let kb_to_mb = 1.0 /. 1024.0 in
    let w_to_mw = 1e-6 in
    let pick specs =
      List.filter_map
        (fun (label, color, name, scale) ->
          Option.map (fun pts -> (label, color, pts)) (series ~scale name))
        specs
    in
    let workers_of suffix =
      List.filter
        (fun name ->
          let ls = String.length suffix and l = String.length name in
          l >= ls && String.sub name (l - ls) ls = suffix)
        t.res_order
    in
    let mem_series =
      pick
        [
          ("rss", "#4a7ebb", "res.rss_kb", kb_to_mb);
          ("peak rss", "#b33", "res.max_rss_kb", kb_to_mb);
        ]
      @ List.concat_map
          (fun name ->
            pick [ ("workers rss", "#3a8a4d", name, kb_to_mb) ])
          (workers_of ".workers_rss_kb")
    in
    let gc_series =
      pick
        [
          ("minor words", "#4a7ebb", "res.gc.minor_words", w_to_mw);
          ("major words", "#b33", "res.gc.major_words", w_to_mw);
          ("heap words", "#b38a2d", "res.gc.heap_words", w_to_mw);
        ]
    in
    let coll_series =
      pick
        [
          ("minor gcs", "#4a7ebb", "res.gc.minor_collections", 1.0);
          ("major gcs", "#b33", "res.gc.major_collections", 1.0);
        ]
    in
    if mem_series <> [] || gc_series <> [] || coll_series <> [] then begin
      Buffer.add_string buf "<h2>Memory and GC</h2>\n";
      if mem_series <> [] then
        Buffer.add_string buf
          (svg_chart ~title:"resident set (MB) over time (s)" ~width:640
             ~height:200 mem_series);
      if gc_series <> [] then
        Buffer.add_string buf
          (svg_chart ~title:"GC cumulative allocation (Mwords) over time (s)"
             ~width:640 ~height:200 gc_series);
      if coll_series <> [] then
        Buffer.add_string buf
          (svg_chart ~title:"GC collections over time (s)" ~width:640
             ~height:160 coll_series)
    end
  end

let to_html t =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
     <title>hlts run report</title>\n<style>";
  Buffer.add_string buf style;
  Buffer.add_string buf "</style></head><body>\n<h1>hlts run report</h1>\n";
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"muted\">%d journal decisions over %d iterations%s.</p>\n"
       t.decisions (List.length t.iters)
       (if t.skipped > 0 then
          Printf.sprintf " (%d unparseable lines skipped)" t.skipped
        else ""));
  section_meta buf t;
  section_phases buf t;
  section_trajectory buf t;
  section_table buf t;
  section_pool buf t;
  section_memory buf t;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

let iterations t = List.length t.iters
let decisions t = t.decisions
let skipped t = t.skipped

(* --- service mode: access-log timeline ----------------------------------- *)

(* Renders a [serve --access-log] file (parsed by {!Top}) as a service
   report: latency timeline split hit/miss, bucketed throughput and
   hit-rate series, and a per-op percentile table. *)
let serve_html ~file ~final ~skipped (accs : Top.access list) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
     <title>hlts service report</title>\n<style>";
  Buffer.add_string buf style;
  Buffer.add_string buf "</style></head><body>\n<h1>hlts service report</h1>\n";
  let engine =
    List.filter
      (fun (a : Top.access) -> a.Top.ac_verdict = "hit" || a.Top.ac_verdict = "miss")
      accs
  in
  let t_max =
    List.fold_left (fun acc (a : Top.access) -> Float.max acc a.Top.ac_t_s) 0.0 accs
  in
  Buffer.add_string buf
    (Printf.sprintf
       "<p class=\"muted\">%s — %d request record(s), %d engine \
        execution(s), %.1fs of service, %s%s.</p>\n"
       (esc file) (List.length accs) (List.length engine) t_max
       (if final then "daemon drained" else "daemon still serving")
       (if skipped > 0 then
          Printf.sprintf " (%d unparseable lines skipped)" skipped
        else ""));
  (* latency timeline *)
  let lat_series verdict color =
    ( verdict,
      color,
      engine
      |> List.filter (fun (a : Top.access) -> a.Top.ac_verdict = verdict)
      |> List.map (fun (a : Top.access) ->
             (a.Top.ac_t_s, a.Top.ac_total_s *. 1000.0)) )
  in
  Buffer.add_string buf "<h2>Latency</h2>\n";
  Buffer.add_string buf
    (svg_chart ~title:"request latency (ms) over time (s)" ~width:640
       ~height:200
       [ lat_series "miss" "#bb4a4a"; lat_series "hit" "#4a7ebb" ]);
  (* bucketed throughput + hit rate *)
  if accs <> [] && t_max > 0.0 then begin
    let nb = 30 in
    let wb = t_max /. float_of_int nb in
    let reqs = Array.make nb 0 and hits = Array.make nb 0 in
    let hitmiss = Array.make nb 0 in
    List.iter
      (fun (a : Top.access) ->
        let i = min (nb - 1) (int_of_float (a.Top.ac_t_s /. wb)) in
        reqs.(i) <- reqs.(i) + 1;
        if a.Top.ac_verdict = "hit" || a.Top.ac_verdict = "miss" then begin
          hitmiss.(i) <- hitmiss.(i) + 1;
          if a.Top.ac_verdict = "hit" then hits.(i) <- hits.(i) + 1
        end)
      accs;
    let series_of arr f =
      Array.to_list (Array.mapi (fun i v -> (float_of_int i *. wb, f v)) arr)
    in
    Buffer.add_string buf "<h2>Throughput and hit rate</h2>\n";
    Buffer.add_string buf
      (svg_chart ~title:"requests per second over time (s)" ~width:640
         ~height:160
         [
           ( "req/s",
             "#4a7ebb",
             series_of reqs (fun v -> float_of_int v /. wb) );
         ]);
    let rate_pts =
      List.filter_map
        (fun i ->
          if hitmiss.(i) = 0 then None
          else
            Some
              ( float_of_int i *. wb,
                100.0 *. float_of_int hits.(i) /. float_of_int hitmiss.(i) ))
        (List.init nb Fun.id)
    in
    Buffer.add_string buf
      (svg_chart ~title:"cache hit rate (%) over time (s)" ~width:640
         ~height:160
         [ ("hit %", "#4aa86a", rate_pts) ])
  end;
  (* per-op table *)
  let ops = ref [] in
  List.iter
    (fun (a : Top.access) ->
      if not (List.mem a.Top.ac_op !ops) then ops := a.Top.ac_op :: !ops)
    accs;
  let ops = List.rev !ops in
  if ops <> [] then begin
    Buffer.add_string buf
      "<h2>Requests</h2><table>\n<tr><th class=\"l\">op</th><th>count</th>\
       <th>hits</th><th>misses</th><th>busy</th><th>p50 ms</th><th>p95 \
       ms</th><th>p99 ms</th></tr>\n";
    List.iter
      (fun op ->
        let rows =
          List.filter (fun (a : Top.access) -> a.Top.ac_op = op) accs
        in
        let count v =
          List.length
            (List.filter (fun (a : Top.access) -> a.Top.ac_verdict = v) rows)
        in
        let lat =
          rows
          |> List.filter (fun (a : Top.access) ->
                 a.Top.ac_verdict = "hit" || a.Top.ac_verdict = "miss")
          |> List.map (fun (a : Top.access) -> a.Top.ac_total_s)
          |> Array.of_list
        in
        Array.sort compare lat;
        let p q = Top.percentile lat q *. 1000.0 in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td class=\"l\">%s</td><td>%d</td><td>%d</td><td>%d</td>\
              <td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td></tr>\n"
             (esc op) (List.length rows) (count "hit") (count "miss")
             (count "busy") (p 0.50) (p 0.95) (p 0.99)))
      ops;
    Buffer.add_string buf "</table>\n"
  end;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
