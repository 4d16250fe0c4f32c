module Obs = Hlts_obs
module Json = Obs.Json

(* One heartbeat snapshot, as written by [Hlts_obs.heartbeat_sink]. *)
type hb = {
  hb_seq : int;
  hb_t_s : float;
  hb_final : bool;
  hb_res : (string * float) list;      (** "res." prefix already stripped *)
  hb_counters : (string * int) list;
  hb_gauges : (string * float) list;
}

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let parse_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
    match Json.member "hb" j with
    | Some (Json.Int hb_seq) ->
      let obj name =
        match Json.member name j with
        | Some (Json.Obj fields) -> fields
        | _ -> []
      in
      let floats fields =
        List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (num v)) fields
      in
      let ints fields =
        List.filter_map
          (fun (k, v) -> match v with Json.Int i -> Some (k, i) | _ -> None)
          fields
      in
      Ok
        {
          hb_seq;
          hb_t_s =
            Option.value ~default:0.0 (Option.bind (Json.member "t_s" j) num);
          hb_final = Json.member "final" j = Some (Json.Bool true);
          hb_res = floats (obj "res");
          hb_counters = ints (obj "counters");
          hb_gauges = floats (obj "gauges");
        }
    | _ -> Error "not a heartbeat snapshot")

(* The files read here are typically being appended to by a live run:
   a trailing fragment without a newline is a torn write in progress,
   so it is counted, not returned. Only a missing/unreadable file is an
   error. *)
let read_lines file =
  match open_in_bin file with
  | exception Sys_error msg -> Error msg
  | ic ->
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let n = String.length content in
    let rec lines acc start =
      if start >= n then (List.rev acc, 0)
      else
        match String.index_from_opt content start '\n' with
        | None -> (List.rev acc, 1)
        | Some nl ->
          lines (String.sub content start (nl - start) :: acc) (nl + 1)
    in
    Ok (lines [] 0)

(* Every complete snapshot currently in [file]; a torn tail and any
   line that fails to parse are counted as skipped, never fatal. *)
let read_file file =
  Result.map
    (fun (lines, torn) ->
      let skipped = ref torn in
      let hbs =
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match parse_line line with
              | Ok hb -> Some hb
              | Error _ ->
                incr skipped;
                None)
          lines
      in
      (hbs, !skipped))
    (read_lines file)

(* ---- rendering --------------------------------------------------------- *)

let mb_of_kb kb = kb /. 1024.0
let mw_of_w w = w /. 1e6

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Render one snapshot as a fixed-height text panel. [prev] (an earlier
   snapshot) supplies the baseline for rates; without one, rates are
   since t=0. *)
let render ?prev ~file ~skipped cur =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let resf name = Option.value ~default:0.0 (List.assoc_opt name cur.hb_res) in
  let base_res name =
    match prev with
    | Some p -> Option.value ~default:0.0 (List.assoc_opt name p.hb_res)
    | None -> 0.0
  in
  let dt =
    match prev with
    | Some p when cur.hb_t_s > p.hb_t_s -> cur.hb_t_s -. p.hb_t_s
    | Some _ -> 0.0
    | None -> cur.hb_t_s
  in
  let res_rate name =
    if dt <= 0.0 then 0.0 else (resf name -. base_res name) /. dt
  in
  let counter hb name =
    Option.value ~default:0 (List.assoc_opt name hb.hb_counters)
  in
  let counter_rate name =
    if dt <= 0.0 then 0.0
    else
      let prev_v = match prev with Some p -> counter p name | None -> 0 in
      float_of_int (counter cur name - prev_v) /. dt
  in
  line "hlts top — %s · snapshot #%d · t=%.1fs · %s%s" file cur.hb_seq
    cur.hb_t_s
    (if cur.hb_final then "FINISHED" else "RUNNING")
    (if skipped > 0 then Printf.sprintf " · %d line(s) skipped" skipped else "");
  line "mem   rss %7.1f MB   peak %7.1f MB   heap %7.1f MB"
    (mb_of_kb (resf "rss_kb"))
    (mb_of_kb (resf "max_rss_kb"))
    (mb_of_kb (resf "gc.heap_words" *. 8.0 /. 1024.0));
  let wall = if cur.hb_t_s > 0.0 then cur.hb_t_s else 1.0 in
  line "cpu   user %6.2fs   sys %6.2fs   (%.0f%% of wall)" (resf "utime_s")
    (resf "stime_s")
    (100.0 *. (resf "utime_s" +. resf "stime_s") /. wall);
  line
    "gc    minor %8.1f Mw (%6.1f Mw/s)   major %8.1f Mw (%6.1f Mw/s)   \
     collections %.0f/%.0f"
    (mw_of_w (resf "gc.minor_words"))
    (mw_of_w (res_rate "gc.minor_words"))
    (mw_of_w (resf "gc.major_words"))
    (mw_of_w (res_rate "gc.major_words"))
    (resf "gc.minor_collections")
    (resf "gc.major_collections");
  (* Pool gauges: queue depth plus the fleet aggregates the pool folds
     out of per-worker resource snapshots. *)
  let gauge_sum suffix =
    List.fold_left
      (fun acc (n, v) -> if ends_with ~suffix n then acc +. v else acc)
      0.0 cur.hb_gauges
  in
  let has suffix = List.exists (fun (n, _) -> ends_with ~suffix n) cur.hb_gauges in
  if has ".queue_depth" || has ".workers_tasks" then
    line "pool  queue %3.0f   workers: cpu %6.2fs   rss %7.1f MB   tasks %.0f"
      (gauge_sum ".queue_depth")
      (gauge_sum ".workers_cpu_s")
      (mb_of_kb (gauge_sum ".workers_rss_kb"))
      (gauge_sum ".workers_tasks");
  let rated =
    List.map (fun (n, v) -> (n, v, counter_rate n)) cur.hb_counters
    |> List.sort (fun (n1, _, r1) (n2, _, r2) ->
           match compare r2 r1 with 0 -> compare n1 n2 | c -> c)
  in
  if rated <> [] then begin
    line "counters%32s%14s" "total" "rate";
    List.iteri
      (fun i (n, v, r) ->
        if i < 10 then line "  %-34s %10d %10.1f/s" n v r)
      rated
  end;
  let other_gauges =
    List.filter
      (fun (n, _) ->
        not
          (ends_with ~suffix:".queue_depth" n
          || ends_with ~suffix:".workers_cpu_s" n
          || ends_with ~suffix:".workers_rss_kb" n
          || ends_with ~suffix:".workers_tasks" n))
      cur.hb_gauges
  in
  if other_gauges <> [] then begin
    line "gauges";
    List.iteri
      (fun i (n, v) -> if i < 8 then line "  %-34s %12.3f" n v)
      other_gauges
  end;
  Buffer.contents b

let last = function
  | [] -> None
  | hbs -> Some (List.nth hbs (List.length hbs - 1))

(* One-shot: render the newest snapshot in [file], rates measured
   against the oldest one. *)
let once ~file =
  match read_file file with
  | Error e -> Error e
  | Ok ([], _) -> Error (file ^ ": no complete heartbeat snapshot")
  | Ok ((first :: _ as hbs), skipped) ->
    let cur = Option.get (last hbs) in
    let prev = if cur.hb_seq > first.hb_seq then Some first else None in
    Ok (render ?prev ~file ~skipped cur)

(* Live mode: re-read [file] every [interval_ms], clear the terminal
   and redraw. Stops after rendering a final snapshot, or after
   [frames] frames when [frames > 0]. An existing-but-still-empty file
   is polled (the producer opens it before the first event), with a
   bound so a crashed producer cannot hang us forever. *)
(* ---- serve mode: access-log dashboard ----------------------------------- *)

(* One request record from a [serve --access-log] file. *)
type access = {
  ac_t_s : float;
  ac_trace : string;
  ac_op : string;
  ac_digest : string;
  ac_verdict : string;
  ac_async : bool;
  ac_bytes_out : int;
  ac_queue_s : float;
  ac_cache_s : float;
  ac_compute_s : float;
  ac_reply_s : float;
  ac_total_s : float;
}

type access_line =
  | Request of access
  | Lifecycle of { lc_event : string; lc_final : bool }

let parse_access_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok j -> (
    match Json.member "serve" j with
    | Some (Json.Str lc_event) ->
      Ok
        (Lifecycle
           { lc_event; lc_final = Json.member "final" j = Some (Json.Bool true) })
    | Some _ -> Error "bad lifecycle line"
    | None -> (
      match (Json.member "op" j, Json.member "verdict" j) with
      | Some (Json.Str ac_op), Some (Json.Str ac_verdict) ->
        let f name =
          Option.value ~default:0.0 (Option.bind (Json.member name j) num)
        in
        let s name =
          match Json.member name j with Some (Json.Str v) -> v | _ -> "-"
        in
        Ok
          (Request
             {
               ac_t_s = f "t_s";
               ac_trace = s "trace";
               ac_op;
               ac_digest = s "digest";
               ac_verdict;
               ac_async = Json.member "async" j = Some (Json.Bool true);
               ac_bytes_out =
                 (match Json.member "bytes_out" j with
                 | Some (Json.Int n) -> n
                 | _ -> 0);
               ac_queue_s = f "queue_s";
               ac_cache_s = f "cache_s";
               ac_compute_s = f "compute_s";
               ac_reply_s = f "reply_s";
               ac_total_s = f "total_s";
             })
      | _ -> Error "not an access record"))

(* Same tolerance contract as [read_file]: torn trailing fragment and
   unparseable lines are skipped, never fatal. Returns the request
   records in file order, whether a final lifecycle line was seen, and
   the skipped count. *)
let read_access_file file =
  Result.map
    (fun (lines, torn) ->
      let skipped = ref torn and final = ref false in
      let accs =
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match parse_access_line line with
              | Ok (Request a) -> Some a
              | Ok (Lifecycle l) ->
                if l.lc_final then final := true;
                None
              | Error _ ->
                incr skipped;
                None)
          lines
      in
      (accs, !final, !skipped))
    (read_lines file)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let ms v = v *. 1000.0

(* Render the access log as a service panel: RPS, latency percentiles,
   hit rate, inferred queue depth (accepted not yet executed), busy
   rejects and a per-op breakdown. *)
let render_serve ~file ~skipped ~final accs =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let n = List.length accs in
  let t_max = List.fold_left (fun acc a -> Float.max acc a.ac_t_s) 0.0 accs in
  let engine =
    List.filter (fun a -> a.ac_verdict = "hit" || a.ac_verdict = "miss") accs
  in
  let hits = List.length (List.filter (fun a -> a.ac_verdict = "hit") engine) in
  let misses = List.length engine - hits in
  let busy = List.length (List.filter (fun a -> a.ac_verdict = "busy") accs) in
  let accepted =
    List.length (List.filter (fun a -> a.ac_verdict = "accepted") accs)
  in
  let async_done = List.length (List.filter (fun a -> a.ac_async) accs) in
  let lat =
    engine |> List.map (fun a -> a.ac_total_s) |> Array.of_list
  in
  Array.sort compare lat;
  let wall = if t_max > 0.0 then t_max else 1.0 in
  let recent =
    List.length (List.filter (fun a -> a.ac_t_s >= t_max -. 10.0) accs)
  in
  line "hlts top --serve — %s · %d request(s) · t=%.1fs · %s%s" file n t_max
    (if final then "STOPPED" else "SERVING")
    (if skipped > 0 then Printf.sprintf " · %d line(s) skipped" skipped else "");
  line "rate   %6.1f req/s overall   %6.1f req/s last 10s"
    (float_of_int n /. wall)
    (float_of_int recent /. Float.min 10.0 wall);
  line "lat    p50 %8.2f ms   p95 %8.2f ms   p99 %8.2f ms   max %8.2f ms"
    (ms (percentile lat 0.50))
    (ms (percentile lat 0.95))
    (ms (percentile lat 0.99))
    (ms (percentile lat 1.0));
  line "cache  hits %d   misses %d   hit-rate %.0f%%" hits misses
    (if hits + misses > 0 then
       100.0 *. float_of_int hits /. float_of_int (hits + misses)
     else 0.0);
  line "queue  depth %d (accepted %d, completed %d)   busy rejects %d"
    (max 0 (accepted - async_done))
    accepted async_done busy;
  if engine <> [] then begin
    let mean f =
      List.fold_left (fun acc a -> acc +. f a) 0.0 engine
      /. float_of_int (List.length engine)
    in
    line
      "phases queue %8.2f ms   cache %8.2f ms   compute %8.2f ms   reply \
       %8.2f ms (means)"
      (ms (mean (fun a -> a.ac_queue_s)))
      (ms (mean (fun a -> a.ac_cache_s)))
      (ms (mean (fun a -> a.ac_compute_s)))
      (ms (mean (fun a -> a.ac_reply_s)))
  end;
  (* per-op rows, first-seen order *)
  let ops = ref [] in
  List.iter
    (fun a -> if not (List.mem a.ac_op !ops) then ops := a.ac_op :: !ops)
    accs;
  let ops = List.rev !ops in
  if ops <> [] then begin
    line "ops    %-14s %8s %8s %8s %12s" "op" "count" "hits" "misses"
      "p95 ms";
    List.iter
      (fun op ->
        let rows = List.filter (fun a -> a.ac_op = op) accs in
        let h = List.length (List.filter (fun a -> a.ac_verdict = "hit") rows) in
        let m =
          List.length (List.filter (fun a -> a.ac_verdict = "miss") rows)
        in
        let l =
          rows
          |> List.filter (fun a -> a.ac_verdict = "hit" || a.ac_verdict = "miss")
          |> List.map (fun a -> a.ac_total_s)
          |> Array.of_list
        in
        Array.sort compare l;
        line "       %-14s %8d %8d %8d %12.2f" op (List.length rows) h m
          (ms (percentile l 0.95)))
      ops
  end;
  Buffer.contents b

let once_serve ~file =
  match read_access_file file with
  | Error e -> Error e
  | Ok ([], false, _) -> Error (file ^ ": no complete access-log record")
  | Ok (accs, final, skipped) -> Ok (render_serve ~file ~skipped ~final accs)

let follow_serve ?(frames = 0) ?(interval_ms = 250) ~file write =
  let sleep () = Unix.sleepf (float_of_int (max 1 interval_ms) /. 1000.0) in
  let max_empty_polls = 1 + (60_000 / max 1 interval_ms) in
  let rec loop ~rendered ~empty =
    match read_access_file file with
    | Error e -> Error e
    | Ok ([], false, _) ->
      if empty >= max_empty_polls then
        Error (file ^ ": no access-log record appeared")
      else begin
        sleep ();
        loop ~rendered ~empty:(empty + 1)
      end
    | Ok (accs, final, skipped) ->
      write ("\027[2J\027[H" ^ render_serve ~file ~skipped ~final accs);
      let rendered = rendered + 1 in
      if final || (frames > 0 && rendered >= frames) then Ok ()
      else begin
        sleep ();
        loop ~rendered ~empty:0
      end
  in
  loop ~rendered:0 ~empty:0

let follow ?(frames = 0) ?(interval_ms = 250) ~file write =
  let sleep () = Unix.sleepf (float_of_int (max 1 interval_ms) /. 1000.0) in
  let max_empty_polls = 1 + (60_000 / max 1 interval_ms) in
  let rec loop ~rendered ~empty prev =
    match read_file file with
    | Error e -> Error e
    | Ok ([], _) ->
      if empty >= max_empty_polls then
        Error (file ^ ": no heartbeat snapshot appeared")
      else begin
        sleep ();
        loop ~rendered ~empty:(empty + 1) prev
      end
    | Ok ((first :: _ as hbs), skipped) ->
      let cur = Option.get (last hbs) in
      let base =
        match prev with
        | Some p when p.hb_seq < cur.hb_seq -> Some p
        | _ -> if cur.hb_seq > first.hb_seq then Some first else None
      in
      write ("\027[2J\027[H" ^ render ?prev:base ~file ~skipped cur);
      let rendered = rendered + 1 in
      if cur.hb_final || (frames > 0 && rendered >= frames) then Ok ()
      else begin
        sleep ();
        loop ~rendered ~empty:0 (Some cur)
      end
  in
  loop ~rendered:0 ~empty:0 None
