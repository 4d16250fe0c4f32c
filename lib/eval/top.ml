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

let ( let* ) = Result.bind

let parse_line line =
  let* j = Json.of_string line in
  let* hb_seq = Json.field "hb" Json.int j in
  let* hb_t_s = Json.field_default "t_s" Json.number ~default:0.0 j in
  let* hb_final = Json.field_default "final" Json.bool ~default:false j in
  (* members of the wrong type are dropped, not fatal *)
  let members name conv =
    match Json.member name j with
    | Some (Json.Obj fields) ->
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (conv v)) fields
    | _ -> []
  in
  Ok
    {
      hb_seq;
      hb_t_s;
      hb_final;
      hb_res = members "res" Json.number;
      hb_counters = members "counters" Json.int;
      hb_gauges = members "gauges" Json.number;
    }

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

(* Every line of [file] that [parse] accepts, in file order, plus the
   skipped count: a torn tail and any line that fails to parse are
   counted as skipped, never fatal. *)
let read_parsed parse file =
  Result.map
    (fun (lines, torn) ->
      let skipped = ref torn in
      let parsed =
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match parse line with
              | Ok x -> Some x
              | Error _ ->
                incr skipped;
                None)
          lines
      in
      (parsed, !skipped))
    (read_lines file)

let read_file = read_parsed parse_line

(* ---- rendering --------------------------------------------------------- *)

let mb_of_kb kb = kb /. 1024.0
let mw_of_w w = w /. 1e6

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
      (fun acc (n, v) -> if String.ends_with ~suffix n then acc +. v else acc)
      0.0 cur.hb_gauges
  in
  let has suffix =
    List.exists (fun (n, _) -> String.ends_with ~suffix n) cur.hb_gauges
  in
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
          (List.exists
             (fun suffix -> String.ends_with ~suffix n)
             [
               ".queue_depth"; ".workers_cpu_s"; ".workers_rss_kb";
               ".workers_tasks";
             ]))
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

(* The loop both live modes share: every [interval_ms], [step ()]
   re-reads the file and returns the panel to draw and whether it is
   final, or [None] while the file holds nothing to show yet. *)
let poll ~frames ~interval_ms ~file ~what write step =
  let sleep () = Unix.sleepf (float_of_int (max 1 interval_ms) /. 1000.0) in
  let max_empty_polls = 1 + (60_000 / max 1 interval_ms) in
  let rec loop ~rendered ~empty =
    match step () with
    | Error e -> Error e
    | Ok None ->
      if empty >= max_empty_polls then
        Error (Printf.sprintf "%s: no %s appeared" file what)
      else begin
        sleep ();
        loop ~rendered ~empty:(empty + 1)
      end
    | Ok (Some (panel, final)) ->
      write ("\027[2J\027[H" ^ panel);
      let rendered = rendered + 1 in
      if final || (frames > 0 && rendered >= frames) then Ok ()
      else begin
        sleep ();
        loop ~rendered ~empty:0
      end
  in
  loop ~rendered:0 ~empty:0

(* Live mode: re-read [file] every [interval_ms], clear the terminal
   and redraw, each frame's rates based on the previous frame. Stops
   after rendering a final snapshot, or after [frames] frames when
   [frames > 0]. An existing-but-still-empty file is polled (the
   producer opens it before the first event), with a bound so a crashed
   producer cannot hang us forever. *)
let follow ?(frames = 0) ?(interval_ms = 250) ~file write =
  let prev = ref None in
  poll ~frames ~interval_ms ~file ~what:"heartbeat snapshot" write (fun () ->
      Result.map
        (function
          | [], _ -> None
          | (first :: _ as hbs), skipped ->
            let cur = Option.get (last hbs) in
            let base =
              match !prev with
              | Some p when p.hb_seq < cur.hb_seq -> Some p
              | _ -> if cur.hb_seq > first.hb_seq then Some first else None
            in
            prev := Some cur;
            Some (render ?prev:base ~file ~skipped cur, cur.hb_final))
        (read_file file))

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
  let* j = Json.of_string line in
  if Json.member "serve" j <> None then
    let* lc_event = Json.field "serve" Json.string j in
    let* lc_final = Json.field_default "final" Json.bool ~default:false j in
    Ok (Lifecycle { lc_event; lc_final })
  else
    let* ac_op = Json.field "op" Json.string j in
    let* ac_verdict = Json.field "verdict" Json.string j in
    let seconds name = Json.field_default name Json.number ~default:0.0 j in
    let text name = Json.field_default name Json.string ~default:"-" j in
    let* ac_t_s = seconds "t_s" in
    let* ac_trace = text "trace" in
    let* ac_digest = text "digest" in
    let* ac_async = Json.field_default "async" Json.bool ~default:false j in
    let* ac_bytes_out = Json.field_default "bytes_out" Json.int ~default:0 j in
    let* ac_queue_s = seconds "queue_s" in
    let* ac_cache_s = seconds "cache_s" in
    let* ac_compute_s = seconds "compute_s" in
    let* ac_reply_s = seconds "reply_s" in
    let* ac_total_s = seconds "total_s" in
    Ok
      (Request
         {
           ac_t_s;
           ac_trace;
           ac_op;
           ac_digest;
           ac_verdict;
           ac_async;
           ac_bytes_out;
           ac_queue_s;
           ac_cache_s;
           ac_compute_s;
           ac_reply_s;
           ac_total_s;
         })

(* The request records in file order, whether a final lifecycle line
   was seen, and the skipped count. *)
let read_access_file file =
  Result.map
    (fun (lines, skipped) ->
      let accs =
        List.filter_map
          (function Request a -> Some a | Lifecycle _ -> None)
          lines
      and final =
        List.exists
          (function Lifecycle l -> l.lc_final | Request _ -> false)
          lines
      in
      (accs, final, skipped))
    (read_parsed parse_access_line file)

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
  poll ~frames ~interval_ms ~file ~what:"access-log record" write (fun () ->
      Result.map
        (function
          | [], false, _ -> None
          | accs, final, skipped ->
            Some (render_serve ~file ~skipped ~final accs, final))
        (read_access_file file))
