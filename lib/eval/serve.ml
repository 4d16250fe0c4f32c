module Json = Hlts_obs.Json
module Obs = Hlts_obs
module Trace_ctx = Hlts_obs.Trace_ctx

(* Daemon release version, reported in ping/stats so clients and
   [hlts top --serve] can detect skew. Independent of
   [Wire.schema_version] (frame compatibility) and the engine schema
   (cache compatibility). *)
let version = "0.10"

type config = {
  addr : Wire.addr;
  cache : Cache.t;
  jobs : int option;
  backend : unit option;
  queue_limit : int;
  log : string -> unit;
  access_log : (string -> unit) option;
  metrics : string option;
  slow_k : int;
}

let default_socket_path cache_dir = Filename.concat cache_dir "serve.sock"

type conn = { fd : Unix.file_descr; dec : Wire.decoder }

(* One queued async job: enqueue timestamp feeds the "queue" phase of
   its access record when it finally runs. *)
type job = {
  jb_digest : string;
  jb_req : Engine.request;
  jb_op : string;
  jb_trace : string;
  jb_enq_ns : int64;
}

(* One of the K slowest requests, journal included, for the SIGUSR1
   dump; its journal digest is the one the result carried. *)
type slow = {
  sl_t_s : float;
  sl_op : string;
  sl_digest : string;
  sl_verdict : string;
  sl_trace : string;
  sl_total_s : float;
  sl_journal : Obs.Journal.event list;
  sl_journal_digest : string;
}

type state = {
  cfg : config;
  engine : Engine.t;
  listen : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  queue : job Queue.t;
  summary : Obs.Summary.t;
  t0 : int64;
  mutable draining : bool;
  mutable shutdown : bool;
  mutable served : int;
  mutable accepted : int;
  mutable busy_rejects : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable slowest : slow list;  (* ascending by total_s, length <= slow_k *)
  mutable dump_slow : bool;     (* SIGUSR1 pending *)
}

let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

let busy st =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("busy", Json.Bool true);
      ( "error",
        Json.Str
          (Printf.sprintf "queue full (%d pending)" (Queue.length st.queue))
      );
    ]

let queue_gauge st =
  Obs.gauge "serve.queue_depth" (float_of_int (Queue.length st.queue))

let execute st req =
  let result = Engine.run st.engine req in
  st.served <- st.served + 1;
  if result.Engine.cached then begin
    st.cache_hits <- st.cache_hits + 1;
    Obs.count "serve.cache_hits"
  end
  else begin
    st.cache_misses <- st.cache_misses + 1;
    Obs.count "serve.cache_misses"
  end;
  result

(* ---- access log -------------------------------------------------------- *)

(* One JSON object per line; [t_s] is seconds since daemon start on the
   monotonic clock. Each line is a single [write] call (the writer's
   contract) so a tailing reader never sees a torn record. *)
let access st fields =
  match st.cfg.access_log with
  | None -> ()
  | Some write ->
    write
      (Json.to_string
         (Json.Obj
            (("t_s", Json.Float (Obs.Clock.seconds_since st.t0)) :: fields))
      ^ "\n")

let note_slow st s =
  let l =
    List.sort
      (fun a b -> compare a.sl_total_s b.sl_total_s)
      (s :: st.slowest)
  in
  st.slowest <-
    (if List.length l > st.cfg.slow_k && st.cfg.slow_k >= 0 then List.tl l
     else l)

let slow_summary_json s =
  Json.Obj
    [
      ("t_s", Json.Float s.sl_t_s); ("op", Json.Str s.sl_op);
      ("digest", Json.Str s.sl_digest); ("verdict", Json.Str s.sl_verdict);
      ("trace", Json.Str s.sl_trace); ("total_s", Json.Float s.sl_total_s);
      ("journal_digest", Json.Str s.sl_journal_digest);
    ]

(* SIGUSR1 dump: one line per retained request, slowest first, captured
   journal included. *)
let dump_slowest st =
  List.iter
    (fun s ->
      let j =
        match slow_summary_json s with
        | Json.Obj fields ->
          Json.Obj
            (("slow", Json.Bool true)
            :: fields
            @ [
                ( "journal",
                  Json.List (List.map Obs.Journal.encode s.sl_journal) );
              ])
        | j -> j
      in
      st.cfg.log (Json.to_string j))
    (List.rev st.slowest)

let write_metrics st =
  match st.cfg.metrics with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Metrics.expose st.summary);
    close_out oc

(* Per-request accounting, shared by the sync reply path and the async
   execution path: access-log record, SLO latency samples (split by op
   and verdict — they become _bucket histograms in --metrics), slow
   ring. *)
let record st ~op ~digest ~verdict ~trace ~async ~queue_s ~cache_s ~compute_s
    ~reply_s ~bytes_out ~total_s ~result =
  access st
    ([
       ("trace", Json.Str trace); ("op", Json.Str op);
       ("digest", Json.Str digest); ("verdict", Json.Str verdict);
     ]
    @ (if async then [ ("async", Json.Bool true) ] else [])
    @ [
        ("bytes_out", Json.Int bytes_out); ("queue_s", Json.Float queue_s);
        ("cache_s", Json.Float cache_s);
        ("compute_s", Json.Float compute_s);
        ("reply_s", Json.Float reply_s); ("total_s", Json.Float total_s);
      ]);
  Obs.sample (Printf.sprintf "serve.request.%s.%s.seconds" op verdict) total_s;
  Obs.sample "serve.phase.queue_seconds" queue_s;
  Obs.sample "serve.phase.cache_seconds" cache_s;
  Obs.sample "serve.phase.compute_seconds" compute_s;
  Obs.sample "serve.phase.reply_seconds" reply_s;
  match result with
  | None -> ()
  | Some (r : Engine.result) ->
    note_slow st
      {
        sl_t_s = Obs.Clock.seconds_since st.t0;
        sl_op = op;
        sl_digest = digest;
        sl_verdict = verdict;
        sl_trace = trace;
        sl_total_s = total_s;
        sl_journal = r.Engine.journal;
        sl_journal_digest = r.Engine.journal_digest;
      }

(* ---- replies ------------------------------------------------------------ *)

let result_reply ~with_journal (r : Engine.result) =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("digest", Json.Str r.Engine.digest);
       ("cached", Json.Bool r.Engine.cached);
       ("response", Engine.response_to_json r.Engine.response);
       ("response_digest", Json.Str r.Engine.response_digest);
       ("journal_digest", Json.Str r.Engine.journal_digest);
     ]
    @
    if with_journal then
      [
        ( "journal",
          Json.List (List.map Obs.Journal.encode r.Engine.journal) );
      ]
    else [])

(* Echo the request's trace context plus whatever spans its execution
   shipped: the client merges these lanes with its own. *)
let add_trace reply (ctx : Trace_ctx.t) spans =
  match reply with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ( "trace",
            Json.Obj
              [
                ("id", Json.Str ctx.Trace_ctx.trace_id);
                ("span", Json.Str ctx.Trace_ctx.span_id);
                ( "spans",
                  Json.List (List.map Trace_ctx.span_to_json spans) );
              ] );
        ])
  | j -> j

let identity_fields st =
  [
    ("version", Json.Str version);
    ("schema", Json.Int Wire.schema_version);
    ("uptime_s", Json.Float (Obs.Clock.seconds_since st.t0));
    ("served", Json.Int st.served);
    ("accepted", Json.Int st.accepted);
    ("busy_rejects", Json.Int st.busy_rejects);
  ]

let stats_reply st =
  let c = Cache.stats st.cfg.cache in
  write_metrics st;
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("queue_depth", Json.Int (Queue.length st.queue));
     ]
    @ identity_fields st
    @ [
        ("cache_hits", Json.Int st.cache_hits);
        ("cache_misses", Json.Int st.cache_misses);
        ( "cache",
          Json.Obj
            [
              ("mem_entries", Json.Int c.Cache.mem_entries);
              ("mem_hits", Json.Int c.Cache.mem_hits);
              ("mem_misses", Json.Int c.Cache.mem_misses);
              ("disk_hits", Json.Int c.Cache.disk_hits);
              ("disk_misses", Json.Int c.Cache.disk_misses);
              ("disk_errors", Json.Int c.Cache.disk_errors);
            ] );
        ( "slowest",
          Json.List (List.rev_map slow_summary_json st.slowest) );
      ])

(* What [record] needs to know about a handled frame. *)
type meta = {
  m_op : string;
  m_digest : string;
  m_verdict : string;
  m_trace : string;
  m_cache_s : float;
  m_compute_s : float;
  m_result : Engine.result option;
}

let meta ?(digest = "-") ?(cache_s = 0.0) ?(compute_s = 0.0) ?result
    ?(trace = "-") ~op verdict =
  {
    m_op = op;
    m_digest = digest;
    m_verdict = verdict;
    m_trace = trace;
    m_cache_s = cache_s;
    m_compute_s = compute_s;
    m_result = result;
  }

(* One decoded envelope -> one reply frame plus its accounting meta.
   The reply is written (and timed) by the caller. *)
let handle st frame =
  match Json.member "op" frame with
  | Some (Json.Str "ping") ->
    ( Json.Obj
        ([ ("ok", Json.Bool true); ("op", Json.Str "pong") ]
        @ identity_fields st),
      meta ~op:"ping" "ok" )
  | Some (Json.Str "stats") -> (stats_reply st, meta ~op:"stats" "ok")
  | Some (Json.Str "shutdown") ->
    st.cfg.log "shutdown requested";
    st.shutdown <- true;
    st.draining <- true;
    ( Json.Obj [ ("ok", Json.Bool true); ("draining", Json.Bool true) ],
      meta ~op:"shutdown" "ok" )
  | Some (Json.Str op_str) -> (
    let ctx = Trace_ctx.of_envelope frame in
    let trace =
      match ctx with Some c -> c.Trace_ctx.trace_id | None -> "-"
    in
    match Engine.request_of_json frame with
    | Error e -> (err e, meta ~op:op_str ~trace "error")
    | Ok req ->
      let wait =
        match Json.member "wait" frame with
        | Some (Json.Bool false) -> false
        | _ -> true
      in
      let with_journal =
        match Json.member "journal" frame with
        | Some (Json.Bool true) -> true
        | _ -> false
      in
      if wait then begin
        (* Sampled requests run under a collector sink: the daemon's
           own spans land on lane 1, pool-worker spans on lanes 2+w,
           and everything ships back in the reply. The engine's work is
           identical either way — the collector only observes. *)
        let result, spans =
          match ctx with
          | Some c when c.Trace_ctx.sampled ->
            let sink, captured =
              Trace_ctx.collector ~lane:1 ~label:"daemon" ()
            in
            let r =
              Obs.with_sink sink (fun () ->
                  Obs.span ~cat:"serve" ("serve." ^ op_str) (fun _ ->
                      execute st req))
            in
            (r, captured ())
          | Some _ | None -> (execute st req, [])
        in
        let reply = result_reply ~with_journal result in
        let reply =
          match ctx with
          | Some c -> add_trace reply c spans
          | None -> reply
        in
        ( reply,
          meta ~op:op_str ~trace ~digest:result.Engine.digest
            ~cache_s:result.Engine.probe_s
            ~compute_s:result.Engine.compute_s
            ~result
            (if result.Engine.cached then "hit" else "miss") )
      end
      else if Queue.length st.queue >= st.cfg.queue_limit then begin
        st.busy_rejects <- st.busy_rejects + 1;
        Obs.count "serve.busy_rejects";
        (busy st, meta ~op:op_str ~trace "busy")
      end
      else begin
        let digest = Engine.request_digest req in
        Queue.add
          {
            jb_digest = digest;
            jb_req = req;
            jb_op = op_str;
            jb_trace = trace;
            jb_enq_ns = Obs.Clock.now_ns ();
          }
          st.queue;
        st.accepted <- st.accepted + 1;
        queue_gauge st;
        ( Json.Obj
            [
              ("ok", Json.Bool true);
              ("accepted", Json.Bool true);
              ("digest", Json.Str digest);
            ],
          meta ~op:op_str ~trace ~digest "accepted" )
      end)
  | Some _ -> (err "field \"op\" must be a string", meta ~op:"-" "error")
  | None -> (err "missing field \"op\"", meta ~op:"-" "error")

let drop st conn =
  Hashtbl.remove st.conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Drains every complete frame already buffered for [conn], replying to
   each. Returns [false] if the connection died (protocol error or
   broken pipe). Every frame produces exactly one access-log record,
   written after the reply so it can carry the reply wall and size. *)
let rec pump st conn =
  match Wire.next conn.dec with
  | `Awaiting -> true
  | `Error e ->
    st.cfg.log (Printf.sprintf "protocol error: %s" e);
    drop st conn;
    false
  | `Frame f -> (
    let t_start = Obs.Clock.now_ns () in
    let reply, m =
      try handle st f with
      | Invalid_argument msg ->
        (err (Printf.sprintf "invalid argument: %s" msg), meta ~op:"-" "error")
      | Failure msg -> (err msg, meta ~op:"-" "error")
    in
    let r0 = Obs.Clock.now_ns () in
    let finish bytes_out =
      record st ~op:m.m_op ~digest:m.m_digest ~verdict:m.m_verdict
        ~trace:m.m_trace ~async:false ~queue_s:0.0 ~cache_s:m.m_cache_s
        ~compute_s:m.m_compute_s ~reply_s:(Obs.Clock.seconds_since r0)
        ~bytes_out ~total_s:(Obs.Clock.seconds_since t_start)
        ~result:m.m_result
    in
    match Wire.write_frame' conn.fd reply with
    | bytes_out ->
      finish bytes_out;
      pump st conn
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      finish 0;
      drop st conn;
      false)

let read_buf = Bytes.create 65536

let on_readable st conn =
  match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> drop st conn
  | n ->
    Wire.feed conn.dec read_buf n;
    ignore (pump st conn)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    drop st conn

(* A dequeued async job: no reply (the client already got "accepted"),
   but one access record flagged async, with the real queue wall. *)
let run_job st jb =
  let queue_s = Obs.Clock.seconds_since jb.jb_enq_ns in
  let t_start = Obs.Clock.now_ns () in
  let result = execute st jb.jb_req in
  record st ~op:jb.jb_op ~digest:jb.jb_digest
    ~verdict:(if result.Engine.cached then "hit" else "miss")
    ~trace:jb.jb_trace ~async:true ~queue_s ~cache_s:result.Engine.probe_s
    ~compute_s:result.Engine.compute_s ~reply_s:0.0 ~bytes_out:0
    ~total_s:(Obs.Clock.seconds_since t_start)
    ~result:(Some result)

let bind_listen cfg =
  let sa = Wire.sockaddr cfg.addr in
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match cfg.addr with
  | Wire.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Wire.Unix_path path ->
    (* Replace the socket file only if nothing is accepting on it. *)
    if Sys.file_exists path then begin
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe sa with
        | () -> true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
          false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then begin
        Unix.close fd;
        failwith (Printf.sprintf "a daemon is already listening on %s" path)
      end;
      try Unix.unlink path with Unix.Unix_error _ -> ()
    end);
  Unix.bind fd sa;
  Unix.listen fd 64;
  fd

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = bind_listen cfg in
  let st =
    {
      cfg;
      engine = Engine.create ~cache:cfg.cache ?jobs:cfg.jobs ();
      listen;
      conns = Hashtbl.create 16;
      queue = Queue.create ();
      summary = Obs.Summary.create ();
      t0 = Obs.Clock.now_ns ();
      draining = false;
      shutdown = false;
      served = 0;
      accepted = 0;
      busy_rejects = 0;
      cache_hits = 0;
      cache_misses = 0;
      slowest = [];
      dump_slow = false;
    }
  in
  let on_term _ = st.draining <- true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_term) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_term) in
  let prev_usr1 =
    match
      Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> st.dump_slow <- true))
    with
    | h -> Some h
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  (* The lifetime summary only becomes a sink when --metrics asks for
     it: without it the daemon keeps the substrate's passive-by-default
     property (no clock reads, no aggregation on the engine's hot
     paths beyond what a request's own trace capture installs). *)
  let summary_sink =
    match cfg.metrics with
    | None -> None
    | Some _ ->
      let s = Obs.Summary.sink st.summary in
      Obs.add_sink s;
      Some s
  in
  cfg.log (Printf.sprintf "listening on %s" (Wire.addr_to_string cfg.addr));
  access st
    [
      ("serve", Json.Str "listening");
      ("addr", Json.Str (Wire.addr_to_string cfg.addr));
      ("version", Json.Str version);
      ("schema", Json.Int Wire.schema_version);
    ];
  let listening = ref true in
  let close_listener () =
    if !listening then begin
      listening := false;
      (try Unix.close st.listen with Unix.Unix_error _ -> ());
      match cfg.addr with
      | Wire.Unix_path p -> (
        try Unix.unlink p with Unix.Unix_error _ -> ())
      | Wire.Tcp _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_listener ();
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) st.conns;
      (match summary_sink with
      | Some s ->
        Obs.remove_sink s;
        write_metrics st
      | None -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      match prev_usr1 with
      | Some h -> ( try Sys.set_signal Sys.sigusr1 h with _ -> ())
      | None -> ())
    (fun () ->
      (* drain: stop taking connections but complete every queued job
         (sync work always completes — the loop is single-threaded). *)
      let continue () = (not st.draining) || not (Queue.is_empty st.queue) in
      while continue () do
        if st.dump_slow then begin
          st.dump_slow <- false;
          dump_slowest st
        end;
        if st.draining then close_listener ();
        let fds =
          (if !listening then [ st.listen ] else [])
          @ Hashtbl.fold (fun fd _ acc -> fd :: acc) st.conns []
        in
        let readable =
          match Unix.select fds [] [] 0.2 with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            if !listening && fd = st.listen then begin
              match Unix.accept st.listen with
              | cfd, _ ->
                Hashtbl.replace st.conns cfd
                  { fd = cfd; dec = Wire.decoder () }
              | exception Unix.Unix_error _ -> ()
            end
            else
              match Hashtbl.find_opt st.conns fd with
              | Some conn -> on_readable st conn
              | None -> ())
          readable;
        (* one queued job per iteration keeps the loop responsive *)
        (match Queue.take_opt st.queue with
        | Some jb ->
          queue_gauge st;
          run_job st jb
        | None -> ());
        queue_gauge st
      done;
      access st
        [
          ("serve", Json.Str "drained");
          ("final", Json.Bool true);
          ("served", Json.Int st.served);
          ("accepted", Json.Int st.accepted);
          ("busy_rejects", Json.Int st.busy_rejects);
        ];
      cfg.log
        (Printf.sprintf "%s: drained (%d served, %d async accepted, %d busy)"
           (if st.shutdown then "shutdown" else "signal")
           st.served st.accepted st.busy_rejects))
