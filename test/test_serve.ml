(* Lifecycle tests for the [hlts serve] daemon: each scenario forks a
   real daemon on a Unix socket in a temp cache dir and talks to it
   with the real client — ping, cold/warm byte-identity, concurrent
   clients, queue-full backpressure, async completion, SIGTERM drain,
   stale-socket recovery. *)

module Cache = Hlts_eval.Cache
module Engine = Hlts_eval.Engine
module Serve = Hlts_eval.Serve
module Client = Hlts_eval.Client
module Wire = Hlts_eval.Wire
module Flows = Hlts_synth.Flows
module Atpg = Hlts_atpg.Atpg
module Json = Hlts_obs.Json
module Trace_ctx = Hlts_obs.Trace_ctx

let cheap_atpg =
  { Atpg.default_config with
    Atpg.random_lanes = 8; random_cycles = 8; max_frames = 3;
    max_backtracks = 5 }

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hlts-serve-test.%d.%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let spec ?(bits = 4) ?(approach = Flows.Ours) () =
  match Engine.spec ~atpg:cheap_atpg ~bench:"toy" ~approach ~bits () with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* --- daemon harness ------------------------------------------------- *)

let start_daemon ?(queue_limit = 64) ?(jobs = 1) ?access_log ~dir () =
  let sock = Serve.default_socket_path dir in
  let addr = Wire.Unix_path sock in
  match Unix.fork () with
  | 0 ->
    (* the daemon: never returns to Alcotest *)
    let code =
      try
        let access_log =
          Option.map
            (fun path ->
              let oc = open_out path in
              fun line ->
                output_string oc line;
                flush oc)
            access_log
        in
        Serve.run
          {
            Serve.addr;
            cache = Cache.create ~dir:(Some dir) ();
            jobs = Some jobs;
            backend = None;
            queue_limit;
            log = ignore;
            access_log;
            metrics = None;
            slow_k = 4;
          };
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    (* wait for the listener to come up *)
    let rec poll tries =
      match Client.connect addr with
      | Ok c ->
        Client.close c
      | Error e ->
        if tries = 0 then Alcotest.failf "daemon never came up: %s" e
        else begin
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _ -> Alcotest.fail "daemon exited during startup");
          Unix.sleepf 0.05;
          poll (tries - 1)
        end
    in
    poll 100;
    (pid, addr, sock)

let expect_clean_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

let with_daemon ?queue_limit ?jobs ?access_log f =
  let dir = temp_dir () in
  let pid, addr, sock = start_daemon ?queue_limit ?jobs ?access_log ~dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () -> f ~pid ~addr ~sock ~dir)

(* --- envelope helpers ----------------------------------------------- *)

let envelope ?(extra = []) req =
  match Engine.request_to_json req with
  | Json.Obj fields -> Json.Obj (fields @ extra)
  | _ -> Alcotest.fail "request did not encode as an object"

let rpc_exn c env =
  match Client.rpc c env with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "rpc failed: %s" e

let jstr name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "no string %S in %s" name (Json.to_string j)

let jbool name j =
  match Json.member name j with Some (Json.Bool b) -> b | _ -> false

let jmem name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "no field %S in %s" name (Json.to_string j)

let shutdown c =
  let reply = rpc_exn c (Json.Obj [ ("op", Json.Str "shutdown") ]) in
  Alcotest.(check bool) "shutdown acked" true (jbool "ok" reply)

(* find on a fresh cache instance = read the daemon's disk store *)
let on_disk dir digest =
  let c = Cache.create ~dir:(Some dir) () in
  match Cache.find c ~kind:"result" digest with
  | Some _ -> true
  | None -> false

(* --- scenarios ------------------------------------------------------ *)

let test_ping_stats_shutdown () =
  with_daemon (fun ~pid ~addr ~sock ~dir:_ ->
      let c = Result.get_ok (Client.connect addr) in
      let pong = rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]) in
      Alcotest.(check bool) "pong ok" true (jbool "ok" pong);
      Alcotest.(check string) "pong op" "pong" (jstr "op" pong);
      let stats = rpc_exn c (Json.Obj [ ("op", Json.Str "stats") ]) in
      Alcotest.(check bool) "stats ok" true (jbool "ok" stats);
      (match jmem "queue_depth" stats with
      | Json.Int 0 -> ()
      | j -> Alcotest.failf "queue_depth: %s" (Json.to_string j));
      ignore (jmem "cache" stats);
      shutdown c;
      Client.close c;
      expect_clean_exit pid;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

let test_cold_warm_identity () =
  with_daemon (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
      let env =
        envelope
          ~extra:[ ("journal", Json.Bool true) ]
          (Engine.Atpg (spec ()))
      in
      let c = Result.get_ok (Client.connect addr) in
      let cold = rpc_exn c env in
      let warm = rpc_exn c env in
      Alcotest.(check bool) "cold ok" true (jbool "ok" cold);
      Alcotest.(check bool) "cold computes" false (jbool "cached" cold);
      Alcotest.(check bool) "warm recalls" true (jbool "cached" warm);
      List.iter
        (fun f ->
          Alcotest.(check string) f (jstr f cold) (jstr f warm))
        [ "digest"; "response_digest"; "journal_digest" ];
      Alcotest.(check string) "response bytes"
        (Json.to_string (jmem "response" cold))
        (Json.to_string (jmem "response" warm));
      Alcotest.(check string) "journal bytes"
        (Json.to_string (jmem "journal" cold))
        (Json.to_string (jmem "journal" warm));
      (match jmem "journal" cold with
      | Json.List (_ :: _) -> ()
      | j -> Alcotest.failf "journal empty: %s" (Json.to_string j));
      shutdown c;
      Client.close c)

(* A synthetic design far over the operation bound is refused before
   it is generated — promptly, with the range check's error naming the
   field — and the daemon keeps answering. *)
let test_oversized_design_refused () =
  with_daemon (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
      let c = Result.get_ok (Client.connect addr) in
      let req =
        Json.Obj
          [
            ("op", Json.Str "atpg");
            ( "spec",
              Json.Obj
                [
                  ("bench", Json.Str "rnd-s1-n100000");
                  ("approach", Json.Str "ours");
                  ("bits", Json.Int 4);
                ] );
          ]
      in
      let t0 = Unix.gettimeofday () in
      let reply = rpc_exn c req in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "refused" false (jbool "ok" reply);
      let e = jstr "error" reply in
      if not (String.starts_with ~prefix:"field \"ops\" is 100000" e) then
        Alcotest.failf "error %S does not name the operation count" e;
      if dt > 1.0 then Alcotest.failf "refusal took %.2f s" dt;
      let pong = rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]) in
      Alcotest.(check bool) "pong after refusal" true (jbool "ok" pong);
      shutdown c;
      Client.close c)

let test_concurrent_clients () =
  with_daemon (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
      let clients =
        List.init 3 (fun _ -> Result.get_ok (Client.connect addr))
      in
      let approaches = [ Flows.Camad; Flows.Approach2; Flows.Ours ] in
      let replies =
        List.map2
          (fun c approach ->
            rpc_exn c (envelope (Engine.Synth (spec ~approach ()))))
          clients approaches
      in
      List.iter
        (fun r -> Alcotest.(check bool) "ok" true (jbool "ok" r))
        replies;
      let digests = List.map (jstr "digest") replies in
      Alcotest.(check int) "three distinct requests" 3
        (List.length (List.sort_uniq compare digests));
      shutdown (List.hd clients);
      List.iter Client.close clients)

let test_backpressure_busy () =
  (* queue_limit 0: every async submission is deterministically full *)
  with_daemon ~queue_limit:0 (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
      let env =
        envelope ~extra:[ ("wait", Json.Bool false) ] (Engine.Atpg (spec ()))
      in
      let c = Result.get_ok (Client.connect addr) in
      let reply = rpc_exn c env in
      Alcotest.(check bool) "rejected" false (jbool "ok" reply);
      Alcotest.(check bool) "flagged busy" true (jbool "busy" reply);
      (match Client.ok reply with
      | Error e ->
        Alcotest.(check bool) "busy-prefixed error" true
          (String.length e >= 5 && String.sub e 0 5 = "busy:")
      | Ok _ -> Alcotest.fail "busy reply resolved as ok");
      (* sync still works while async is rejected *)
      let sync = rpc_exn c (envelope (Engine.Atpg (spec ()))) in
      Alcotest.(check bool) "sync unaffected" true (jbool "ok" sync);
      shutdown c;
      Client.close c)

let test_async_completes () =
  with_daemon (fun ~pid:_ ~addr ~sock:_ ~dir ->
      let req = Engine.Atpg (spec ()) in
      let env = envelope ~extra:[ ("wait", Json.Bool false) ] req in
      let c = Result.get_ok (Client.connect addr) in
      let reply = rpc_exn c env in
      Alcotest.(check bool) "accepted" true (jbool "accepted" reply);
      let digest = jstr "digest" reply in
      Alcotest.(check string) "digest is the request digest"
        (Engine.request_digest req) digest;
      (* the daemon works the queue between frames; poll its disk store *)
      let rec poll tries =
        if on_disk dir digest then ()
        else if tries = 0 then Alcotest.fail "async job never landed on disk"
        else begin
          Unix.sleepf 0.05;
          poll (tries - 1)
        end
      in
      poll 200;
      (* collecting the result now is a pure cache hit *)
      let collected = rpc_exn c (envelope req) in
      Alcotest.(check bool) "collected from cache" true
        (jbool "cached" collected);
      Alcotest.(check string) "same digest" digest (jstr "digest" collected);
      shutdown c;
      Client.close c)

let test_sigterm_drains () =
  with_daemon (fun ~pid ~addr ~sock ~dir ->
      let req = Engine.Atpg (spec ~bits:8 ()) in
      let c = Result.get_ok (Client.connect addr) in
      let reply =
        rpc_exn c (envelope ~extra:[ ("wait", Json.Bool false) ] req)
      in
      Alcotest.(check bool) "accepted before the signal" true
        (jbool "accepted" reply);
      Client.close c;
      Unix.kill pid Sys.sigterm;
      expect_clean_exit pid;
      Alcotest.(check bool) "queued work completed during drain" true
        (on_disk dir (Engine.request_digest req));
      Alcotest.(check bool) "socket removed" false (Sys.file_exists sock))

(* --- tracing and SLO surface ---------------------------------------- *)

let test_ping_identity () =
  with_daemon (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
      let c = Result.get_ok (Client.connect addr) in
      let pong = rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]) in
      Alcotest.(check string) "version" Serve.version (jstr "version" pong);
      (match jmem "schema" pong with
      | Json.Int v ->
        Alcotest.(check int) "schema" Wire.schema_version v
      | j -> Alcotest.failf "schema: %s" (Json.to_string j));
      (match jmem "uptime_s" pong with
      | Json.Float f when f >= 0.0 -> ()
      | j -> Alcotest.failf "uptime_s: %s" (Json.to_string j));
      (* no engine request answered yet: all cumulative counts at zero *)
      let stats = rpc_exn c (Json.Obj [ ("op", Json.Str "stats") ]) in
      (match
         (jmem "served" stats, jmem "accepted" stats,
          jmem "busy_rejects" stats)
       with
      | Json.Int 0, Json.Int 0, Json.Int 0 -> ()
      | s, a, b ->
        Alcotest.failf "counters: %s %s %s" (Json.to_string s)
          (Json.to_string a) (Json.to_string b));
      let reply = rpc_exn c (envelope (Engine.Synth (spec ()))) in
      Alcotest.(check bool) "synth ok" true (jbool "ok" reply);
      let stats = rpc_exn c (Json.Obj [ ("op", Json.Str "stats") ]) in
      (match jmem "served" stats with
      | Json.Int 1 -> ()
      | j -> Alcotest.failf "served after one request: %s" (Json.to_string j));
      shutdown c;
      Client.close c)

(* One traced cache-miss request against a 2-worker daemon must come
   back with spans on the client, daemon and worker lanes — and
   byte-identical result digests to the same request untraced. The
   daemon's pool runs in the forked daemon process; this test process
   never spawns a domain, so it can keep forking daemons. *)
let test_merged_trace () =
  let req = Engine.Synth (spec ()) in
  let run_one ~traced =
    let result = ref None in
    with_daemon ~jobs:2
      (fun ~pid:_ ~addr ~sock:_ ~dir:_ ->
        let c = Result.get_ok (Client.connect addr) in
        (if traced then
           let ctx = Trace_ctx.generate () in
           match Client.traced_rpc c ctx (envelope req) with
           | Ok (reply, spans) -> result := Some (reply, spans)
           | Error e -> Alcotest.failf "traced rpc: %s" e
         else result := Some (rpc_exn c (envelope req), []));
        shutdown c;
        Client.close c);
    Option.get !result
  in
  let traced_reply, spans = run_one ~traced:true in
  let plain_reply, _ = run_one ~traced:false in
  Alcotest.(check bool) "cold computes" false (jbool "cached" traced_reply);
  let lanes =
    List.sort_uniq compare
      (List.map (fun s -> s.Trace_ctx.sp_lane) spans)
  in
  Alcotest.(check bool) "client lane present" true (List.mem 0 lanes);
  Alcotest.(check bool) "daemon lane present" true (List.mem 1 lanes);
  Alcotest.(check bool) "pool-worker lane present" true
    (List.exists (fun l -> l >= 2) lanes);
  (* tracing must not perturb the computation *)
  List.iter
    (fun f ->
      Alcotest.(check string) f (jstr f plain_reply) (jstr f traced_reply))
    [ "digest"; "response_digest" ];
  (* and the merged document is a well-formed Chrome trace *)
  match Trace_ctx.chrome_trace spans with
  | Json.Obj fields ->
    Alcotest.(check bool) "traceEvents present" true
      (List.mem_assoc "traceEvents" fields)
  | j -> Alcotest.failf "chrome_trace: %s" (Json.to_string j)

(* Every request answered = exactly one access-log record, with phase
   walls that add up to (at most) the total. *)
let test_access_log_records () =
  let dir = temp_dir () in
  let log_file = Filename.concat dir "access.log" in
  let req = Engine.Synth (spec ()) in
  with_daemon ~access_log:log_file (fun ~pid ~addr ~sock:_ ~dir:_ ->
      let c = Result.get_ok (Client.connect addr) in
      ignore (rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]));
      let cold = rpc_exn c (envelope req) in
      let warm = rpc_exn c (envelope req) in
      Alcotest.(check bool) "cold computes" false (jbool "cached" cold);
      Alcotest.(check bool) "warm recalls" true (jbool "cached" warm);
      shutdown c;
      Client.close c;
      expect_clean_exit pid;
      match Hlts_eval.Top.read_access_file log_file with
      | Error e -> Alcotest.failf "access log unreadable: %s" e
      | Ok (recs, final, skipped) ->
        Alcotest.(check int) "no skipped lines" 0 skipped;
        Alcotest.(check bool) "drained marker seen" true final;
        (* ping + synth miss + synth hit + shutdown *)
        Alcotest.(check int) "one record per request" 4 (List.length recs);
        let verdicts = List.map (fun a -> a.Hlts_eval.Top.ac_verdict) recs in
        Alcotest.(check (list string))
          "verdicts in request order"
          [ "ok"; "miss"; "hit"; "ok" ] verdicts;
        List.iter
          (fun a ->
            let open Hlts_eval.Top in
            Alcotest.(check bool)
              (Printf.sprintf "%s: phases bounded by total" a.ac_verdict)
              true
              (a.ac_queue_s +. a.ac_cache_s +. a.ac_compute_s
               +. a.ac_reply_s
               <= a.ac_total_s +. 1e-3);
            Alcotest.(check bool) "bytes out" true (a.ac_bytes_out > 0))
          recs;
        let miss =
          List.find (fun a -> a.Hlts_eval.Top.ac_verdict = "miss") recs
        in
        Alcotest.(check bool) "miss spent compute time" true
          (miss.Hlts_eval.Top.ac_compute_s > 0.0))

let test_stale_socket_replaced () =
  let dir = temp_dir () in
  let pid, _, sock = start_daemon ~dir () in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check bool) "socket left behind" true (Sys.file_exists sock);
  (* a fresh daemon on the same path must detect the dead listener,
     unlink the stale socket and rebind *)
  let pid2, addr2, _ = start_daemon ~dir () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid2) with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Result.get_ok (Client.connect addr2) in
      let pong = rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]) in
      Alcotest.(check bool) "rebound over stale socket" true (jbool "ok" pong);
      shutdown c;
      Client.close c;
      expect_clean_exit pid2)

(* One 12-byte frame whose JSON payload carries a malformed [\u]
   escape, on a raw connection: the daemon drops that connection and
   keeps serving. *)
let test_malformed_escape_survived () =
  with_daemon (fun ~pid ~addr ~sock ~dir:_ ->
      let payload = "\"\\uZZZZ\"" in
      let frame = Bytes.create (4 + String.length payload) in
      Bytes.set_int32_be frame 0 (Int32.of_int (String.length payload));
      Bytes.blit_string payload 0 frame 4 (String.length payload);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          ignore (Unix.write fd frame 0 (Bytes.length frame));
          (* wait until the daemon has read the frame and hung up *)
          let buf = Bytes.create 64 in
          let rec drain () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | _ -> drain ()
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
          in
          drain ());
      let c = Result.get_ok (Client.connect addr) in
      let pong = rpc_exn c (Json.Obj [ ("op", Json.Str "ping") ]) in
      Alcotest.(check bool) "pong after malformed escape" true (jbool "ok" pong);
      shutdown c;
      Client.close c;
      expect_clean_exit pid)

(* --- the frame decoder on arbitrary bytes --------------------------------- *)

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

(* Feeds [stream] to a fresh decoder in pieces of the [cuts] sizes
   (cycled), draining [next] after each piece; stops at the first
   [`Error], as the daemon drops the connection there. Returns the
   frames decoded and whether an error ended the stream. *)
let decode_in_pieces stream cuts =
  let d = Wire.decoder () in
  let frames = ref [] and failed = ref false in
  let rec drain () =
    match Wire.next d with
    | `Frame j -> frames := j :: !frames; drain ()
    | `Awaiting -> ()
    | `Error (_ : string) -> failed := true
  in
  let n = String.length stream and cuts = Array.of_list cuts in
  let rec go off k =
    if off < n && not !failed then begin
      let len = min cuts.(k mod Array.length cuts) (n - off) in
      Wire.feed d (Bytes.of_string (String.sub stream off len)) len;
      drain ();
      go (off + len) (k + 1)
    end
  in
  go 0 0;
  (List.rev !frames, !failed)

let prop_decoder_total =
  let open QCheck.Gen in
  let json =
    oneof
      [
        map (fun i -> Json.Int i) small_signed_int;
        map (fun s -> Json.Str s) (string_size ~gen:printable (0 -- 12));
        map
          (fun (k, i) -> Json.Obj [ (k, Json.Int i); ("op", Json.Str "ping") ])
          (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) nat);
      ]
  in
  let segment =
    frequency
      [
        (3, map (fun j -> `Valid j) json);
        (1, map (fun r -> `Random r) (string_size ~gen:char (0 -- 24)));
        (1, map (fun r -> `Framed r) (string_size ~gen:char (0 -- 24)));
      ]
  in
  let bytes_of = function
    | `Valid j ->
      let p = Json.to_string j in
      be32 (String.length p) ^ p
    | `Random r -> r
    | `Framed r -> be32 (String.length r) ^ r
  in
  let gen =
    triple (list_size (0 -- 8) segment)
      (list_size (1 -- 6) (1 -- 16))
      (int_range 1 (1 lsl 30))
  in
  QCheck.Test.make ~name:"decoder total on random pieces" ~count:300
    (QCheck.make gen) (fun (segments, cuts, excess) ->
      (* arbitrary input: only the three outcomes, never an exception *)
      let (_ : Json.t list * bool) =
        decode_in_pieces (String.concat "" (List.map bytes_of segments)) cuts
      in
      (* well-formed frames then an oversize prefix: every frame, in
         order, then [`Error] *)
      let valid =
        List.filter_map (function `Valid j -> Some j | _ -> None) segments
      in
      let stream =
        String.concat "" (List.map (fun j -> bytes_of (`Valid j)) valid)
        ^ be32 (Wire.max_frame + excess)
      in
      decode_in_pieces stream cuts = (valid, true))

let () =
  Alcotest.run "hlts_serve"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "ping, stats, shutdown" `Quick
            test_ping_stats_shutdown;
          Alcotest.test_case "stale socket replaced" `Quick
            test_stale_socket_replaced;
          Alcotest.test_case "sigterm drains" `Quick test_sigterm_drains;
          Alcotest.test_case "malformed escape survived" `Quick
            test_malformed_escape_survived;
          QCheck_alcotest.to_alcotest prop_decoder_total;
        ] );
      ( "requests",
        [
          Alcotest.test_case "cold = warm" `Quick test_cold_warm_identity;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "oversized design refused" `Quick
            test_oversized_design_refused;
        ] );
      ( "queue",
        [
          Alcotest.test_case "busy backpressure" `Quick test_backpressure_busy;
          Alcotest.test_case "async completes" `Quick test_async_completes;
        ] );
      ( "observability",
        [
          Alcotest.test_case "ping identity fields" `Quick test_ping_identity;
          Alcotest.test_case "merged trace lanes" `Quick test_merged_trace;
          Alcotest.test_case "access-log records" `Quick
            test_access_log_records;
        ] );
    ]
