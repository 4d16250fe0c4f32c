(* Tests for the content-addressed cache and the engine's cache keys:
   LRU behavior, disk round-trips, corrupt-entry detection/eviction,
   and the digest stability properties the cache's soundness rests on
   (same content -> same key; any result-changing knob -> new key). *)

module Cache = Hlts_eval.Cache
module Engine = Hlts_eval.Engine
module Eval = Hlts_eval.Eval
module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module Atpg = Hlts_atpg.Atpg
module Json = Hlts_obs.Json

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
        (Printf.sprintf "hlts-cache-test.%d.%d" (Unix.getpid ()) !n)
    in
    let rec rm p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
    in
    rm d;
    Unix.mkdir d 0o755;
    d

(* --- in-memory tier ------------------------------------------------- *)

let test_mem_roundtrip () =
  let c = Cache.create () in
  Alcotest.(check (option string)) "miss" None (Cache.find c ~kind:"k" "d1");
  Cache.store c ~kind:"k" "d1" "hello";
  Alcotest.(check (option string)) "hit" (Some "hello")
    (Cache.find c ~kind:"k" "d1");
  Alcotest.(check (option string)) "kind namespaced" None
    (Cache.find c ~kind:"other" "d1");
  let s = Cache.stats c in
  Alcotest.(check int) "one entry" 1 s.Cache.mem_entries;
  Alcotest.(check int) "one hit" 1 s.Cache.mem_hits

let test_mem_lru_eviction () =
  let c = Cache.create ~mem_entries:2 () in
  Cache.store c ~kind:"k" "a" 1;
  Cache.store c ~kind:"k" "b" 2;
  (* touch [a] so [b] is the least recently used *)
  Alcotest.(check (option int)) "a live" (Some 1) (Cache.find c ~kind:"k" "a");
  Cache.store c ~kind:"k" "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c ~kind:"k" "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c ~kind:"k" "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c ~kind:"k" "c")

(* --- disk tier ------------------------------------------------------ *)

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let c1 = Cache.create ~dir:(Some dir) () in
  Cache.store c1 ~kind:"row" "deadbeef" (42, "payload");
  (* a second cache over the same directory models a daemon restart *)
  let c2 = Cache.create ~dir:(Some dir) () in
  Alcotest.(check (option (pair int string))) "disk hit" (Some (42, "payload"))
    (Cache.find c2 ~kind:"row" "deadbeef");
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted as disk hit" 1 s.Cache.disk_hits;
  (* promoted to memory: the second find is a mem hit *)
  ignore (Cache.find c2 ~kind:"row" "deadbeef");
  Alcotest.(check int) "promoted" 1 (Cache.stats c2).Cache.mem_hits

let test_mem_only_skips_disk () =
  let dir = temp_dir () in
  let c = Cache.create ~dir:(Some dir) () in
  Cache.store c ~mem_only:true ~kind:"outcome" "d" "never-marshalled";
  let c2 = Cache.create ~dir:(Some dir) () in
  Alcotest.(check (option string)) "not on disk" None
    (Cache.find c2 ~kind:"outcome" "d")

let entry_file dir =
  (* the single entry file under <dir>/<kind>/<fan>/ *)
  let rec walk p =
    if Sys.is_directory p then
      Array.to_list (Sys.readdir p)
      |> List.concat_map (fun f -> walk (Filename.concat p f))
    else [ p ]
  in
  match walk dir with
  | [ f ] -> f
  | files -> Alcotest.failf "expected one entry file, found %d" (List.length files)

let corrupt_with bytes path =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_corrupt_detected_and_evicted () =
  let check label mangle =
    let dir = temp_dir () in
    let c = Cache.create ~dir:(Some dir) () in
    Cache.store c ~kind:"row" "cafe1234" [ 1; 2; 3 ];
    let path = entry_file dir in
    mangle path;
    let c2 = Cache.create ~dir:(Some dir) () in
    Alcotest.(check (option (list int))) (label ^ ": miss") None
      (Cache.find c2 ~kind:"row" "cafe1234");
    Alcotest.(check int) (label ^ ": counted") 1
      (Cache.stats c2).Cache.disk_errors;
    Alcotest.(check bool) (label ^ ": evicted") false (Sys.file_exists path)
  in
  check "bad magic" (corrupt_with "not-hlts v x y 3\nabc");
  check "truncated" (fun path ->
      let ic = open_in_bin path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      corrupt_with (String.sub all 0 (String.length all - 2)) path);
  check "flipped payload byte" (fun path ->
      let ic = open_in_bin path in
      let all = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let last = Bytes.length all - 1 in
      Bytes.set all last (Char.chr (Char.code (Bytes.get all last) lxor 0xff));
      corrupt_with (Bytes.to_string all) path);
  check "wrong version" (fun path ->
      let ic = open_in_bin path in
      let all = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* the header embeds the compiler version; rewriting it breaks the
         magic-line match for a future-version reader *)
      corrupt_with ("hlts-cache/0" ^ String.sub all 12 (String.length all - 12))
        path)

let test_scan_and_clear () =
  let dir = temp_dir () in
  let c = Cache.create ~dir:(Some dir) () in
  Cache.store c ~kind:"row" "d1" 1;
  Cache.store c ~kind:"row" "d2" 2;
  Cache.store c ~kind:"atpg" "d3" 3;
  (* a top-level non-entry file (the daemon socket lives here) must be
     ignored by scan and survive clear *)
  let sock = Filename.concat dir "serve.sock" in
  corrupt_with "not a cache entry" sock;
  let corrupt_path =
    let p = Filename.concat (Filename.concat dir "row") "zz" in
    Unix.mkdir p 0o755;
    let f = Filename.concat p "deadbeefdeadbeef" in
    corrupt_with "garbage" f;
    f
  in
  let s = Cache.scan_dir dir in
  Alcotest.(check int) "valid entries" 3 s.Cache.entries;
  Alcotest.(check (list (pair string int))) "kinds"
    [ ("atpg", 1); ("row", 2) ] s.Cache.kinds;
  Alcotest.(check (list string)) "corrupt listed" [ corrupt_path ]
    s.Cache.corrupt;
  Alcotest.(check bool) "corrupt evicted" false (Sys.file_exists corrupt_path);
  Alcotest.(check bool) "scan spares the socket" true (Sys.file_exists sock);
  let removed = Cache.clear_dir dir in
  Alcotest.(check int) "cleared" 3 removed;
  Alcotest.(check int) "empty after clear" 0 (Cache.scan_dir dir).Cache.entries;
  Alcotest.(check bool) "clear spares the socket" true (Sys.file_exists sock)

(* --- DFG digest stability ------------------------------------------- *)

(* The digest must identify the computation content: permuting the ops
   list (same DAG, different storage order) or renaming the benchmark
   must not move it; touching an operation must. *)

let test_dfg_digest_reorder_invariant () =
  let d = B.tseng in
  let base = Dfg.digest d in
  Alcotest.(check string) "reversed ops" base
    (Dfg.digest { d with Dfg.ops = List.rev d.Dfg.ops });
  Alcotest.(check string) "renamed" base
    (Dfg.digest { d with Dfg.name = "not-tseng" });
  let mangled =
    match d.Dfg.ops with
    | o :: rest -> { d with Dfg.ops = { o with Dfg.result = "zz" } :: rest }
    | [] -> assert false
  in
  Alcotest.(check bool) "op change moves digest" true
    (Dfg.digest mangled <> base)

let test_dfg_digest_reorder_qcheck () =
  (* seeded shuffle so the property run is reproducible *)
  let shuffle seed xs =
    let st = Random.State.make [| seed |] in
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let prop (dfg_seed, shuffle_seed) =
    let d = B.random ~seed:dfg_seed ~ops:30 in
    Dfg.digest d
    = Dfg.digest { d with Dfg.ops = shuffle shuffle_seed d.Dfg.ops }
  in
  let arb = QCheck.(pair (int_range 1 1000) (int_range 1 1000)) in
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:50 ~name:"digest invariant under op shuffle" arb
       prop)

(* --- request digest sensitivity ------------------------------------- *)

let spec_exn ?params ?atpg ?dfg ~bench ~approach ~bits () =
  match Engine.spec ?params ?atpg ?dfg ~bench ~approach ~bits () with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_request_digest_sensitivity () =
  let base () =
    spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 ()
  in
  let d0 = Engine.request_digest (Engine.Atpg (base ())) in
  let differs label s =
    Alcotest.(check bool) label true
      (Engine.request_digest (Engine.Atpg s) <> d0)
  in
  let s = base () in
  differs "alpha" { s with Engine.params = { s.Engine.params with Synth.alpha = 3.5 } };
  differs "beta" { s with Engine.params = { s.Engine.params with Synth.beta = 7.0 } };
  differs "k" { s with Engine.params = { s.Engine.params with Synth.k = 4 } };
  differs "seed" { s with Engine.atpg = { cheap_atpg with Atpg.seed = 99 } };
  differs "frames" { s with Engine.atpg = { cheap_atpg with Atpg.max_frames = 4 } };
  differs "width" (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:8 ());
  differs "approach" (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Camad ~bits:4 ());
  (* the display name is not content: same DFG under a different label *)
  Alcotest.(check string) "bench label excluded" d0
    (Engine.request_digest
       (Engine.Atpg
          (spec_exn ~dfg:B.toy ~atpg:cheap_atpg ~bench:"renamed"
             ~approach:Flows.Ours ~bits:4 ())));
  (* ops differing between synth-only and full requests *)
  Alcotest.(check bool) "op namespaces" true
    (Engine.request_digest (Engine.Synth (base ())) <> d0)

(* --- engine cold/warm byte-identity --------------------------------- *)

let test_engine_cold_warm_identical () =
  let dir = temp_dir () in
  let req () =
    Engine.Atpg
      (spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 ())
  in
  let run () =
    Engine.run
      (Engine.create ~cache:(Cache.create ~dir:(Some dir) ()) ())
      (req ())
  in
  let cold = run () in
  let warm = run () in
  Alcotest.(check bool) "cold computes" false cold.Engine.cached;
  Alcotest.(check bool) "warm recalls" true warm.Engine.cached;
  Alcotest.(check string) "request digests" cold.Engine.digest warm.Engine.digest;
  Alcotest.(check string) "response bytes"
    (Json.to_string (Engine.response_to_json cold.Engine.response))
    (Json.to_string (Engine.response_to_json warm.Engine.response));
  Alcotest.(check string) "journal bytes"
    (Engine.journal_digest cold.Engine.journal)
    (Engine.journal_digest warm.Engine.journal);
  Alcotest.(check bool) "journal captured" true (cold.Engine.journal <> [])

(* Every request kind, cold, then a memory hit on the same engine, then
   a disk hit through a fresh engine over the same directory: the
   digests a result carries are those of its content, and all three
   passes agree. The sweep shares one cell with the [Atpg] request, so
   its cold pass mixes a cell hit with a computed cell. *)
let test_stored_digests_every_kind () =
  let dir = temp_dir () in
  let s = spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 () in
  let s2 =
    spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Camad ~bits:4 ()
  in
  let reqs =
    [
      ("synth", Engine.Synth s);
      ("testability", Engine.Testability s);
      ("atpg", Engine.Atpg s);
      ("sweep", Engine.Sweep [ s2; s ]);
    ]
  in
  let engine () =
    Engine.create ~jobs:1 ~cache:(Cache.create ~dir:(Some dir) ()) ()
  in
  let pass label ~cached e =
    List.map
      (fun (name, req) ->
        let r = Engine.run e req in
        let what = Printf.sprintf "%s %s" label name in
        Alcotest.(check bool) (what ^ ": cached") cached r.Engine.cached;
        Alcotest.(check string) (what ^ ": response digest of the content")
          (Engine.response_digest r.Engine.response) r.Engine.response_digest;
        Alcotest.(check string) (what ^ ": journal digest of the content")
          (Engine.journal_digest r.Engine.journal) r.Engine.journal_digest;
        (r.Engine.digest, r.Engine.response_digest, r.Engine.journal_digest))
      reqs
  in
  let e = engine () in
  let cold = pass "cold" ~cached:false e in
  let mem = pass "memory" ~cached:true e in
  let disk = pass "disk" ~cached:true (engine ()) in
  let triples = Alcotest.(list (triple string string string)) in
  Alcotest.check triples "memory = cold" cold mem;
  Alcotest.check triples "disk = cold" cold disk

(* Total result-tier lookups a cache has served (every tier's probes go
   through [Cache.find], so this counts them all). *)
let lookups c =
  let s = Cache.stats c in
  s.Cache.mem_hits + s.Cache.mem_misses

let test_warm_sweep_one_lookup () =
  let dir = temp_dir () in
  let cells =
    List.map
      (fun approach ->
        spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach ~bits:4 ())
      [ Flows.Ours; Flows.Camad; Flows.Approach2 ]
  in
  let sweep = Engine.Sweep cells in
  let c = Cache.create ~dir:(Some dir) () in
  let e = Engine.create ~jobs:1 ~cache:c () in
  let cold = Engine.run e sweep in
  Alcotest.(check bool) "cold computes" false cold.Engine.cached;
  let before = lookups c in
  let warm = Engine.run e sweep in
  Alcotest.(check bool) "warm recalls" true warm.Engine.cached;
  Alcotest.(check int) "memory hit: one lookup" 1 (lookups c - before);
  let c2 = Cache.create ~dir:(Some dir) () in
  let disk = Engine.run (Engine.create ~jobs:1 ~cache:c2 ()) sweep in
  Alcotest.(check bool) "disk recalls" true disk.Engine.cached;
  Alcotest.(check int) "disk hit: one lookup" 1 (lookups c2);
  Alcotest.(check int) "disk hit: one disk read" 1 (Cache.stats c2).Cache.disk_hits;
  Alcotest.(check string) "same journal digest" cold.Engine.journal_digest
    disk.Engine.journal_digest;
  (* the per-cell entries are still written: a cell asked alone hits *)
  let c3 = Cache.create ~dir:(Some dir) () in
  let cell =
    Engine.run (Engine.create ~jobs:1 ~cache:c3 ()) (Engine.Atpg (List.nth cells 1))
  in
  Alcotest.(check bool) "cell hits after the sweep" true cell.Engine.cached

(* A well-formed entry of the previous disk format — valid header and
   checksum, but a [result] payload of the old type — must be evicted as
   corrupt, never unmarshalled as a sealed answer. *)
let test_old_format_evicted () =
  let dir = temp_dir () in
  let s = spec_exn ~atpg:cheap_atpg ~bench:"toy" ~approach:Flows.Ours ~bits:4 () in
  let fresh = Engine.run (Engine.create ~jobs:1 ()) (Engine.Atpg s) in
  let row =
    match fresh.Engine.response with
    | Engine.Row r -> r
    | _ -> Alcotest.fail "an atpg request answers a row"
  in
  let digest = fresh.Engine.digest in
  let payload = Marshal.to_string (row, fresh.Engine.journal) [] in
  let path =
    List.fold_left Filename.concat dir
      [ "result"; String.sub digest 0 2; digest ]
  in
  Unix.mkdir (Filename.concat dir "result") 0o755;
  Unix.mkdir (Filename.dirname path) 0o755;
  corrupt_with
    (Printf.sprintf "hlts-cache/1 result %s %s %d\n%s" Sys.ocaml_version
       (Digest.to_hex (Digest.string payload))
       (String.length payload) payload)
    path;
  let c = Cache.create ~dir:(Some dir) () in
  Alcotest.(check bool) "miss" true
    (Option.is_none (Cache.find c ~kind:"result" digest));
  Alcotest.(check int) "one disk error" 1 (Cache.stats c).Cache.disk_errors;
  Alcotest.(check bool) "file removed" false (Sys.file_exists path);
  (* the engine recomputes the answer once and stores it afresh *)
  let run () =
    Engine.run
      (Engine.create ~jobs:1 ~cache:(Cache.create ~dir:(Some dir) ()) ())
      (Engine.Atpg s)
  in
  let cold = run () in
  Alcotest.(check bool) "recomputed" false cold.Engine.cached;
  Alcotest.(check string) "same answer" fresh.Engine.response_digest
    cold.Engine.response_digest;
  Alcotest.(check bool) "then hits" true (run ()).Engine.cached

let test_request_json_roundtrip () =
  let s =
    spec_exn ~atpg:cheap_atpg ~bench:"tseng" ~approach:Flows.Approach2
      ~bits:16 ()
  in
  let check req =
    match Engine.request_of_json (Engine.request_to_json req) with
    | Error e -> Alcotest.fail e
    | Ok req' ->
      Alcotest.(check string) "digest survives the wire"
        (Engine.request_digest req) (Engine.request_digest req')
  in
  check (Engine.Atpg s);
  check (Engine.Synth s);
  check (Engine.Testability s);
  check
    (Engine.Sweep [ s; spec_exn ~bench:"toy" ~approach:Flows.Ours ~bits:4 () ]);
  (* an older client may still name a fault-grading engine: every
     engine gave the same answer, so the field is ignored *)
  let with_engine =
    match Engine.spec_to_json s with
    | Json.Obj fields -> Json.Obj (fields @ [ ("engine", Json.Str "full") ])
    | j -> j
  in
  match Engine.spec_of_json with_engine with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    Alcotest.(check string) "engine field ignored"
      (Engine.request_digest (Engine.Atpg s))
      (Engine.request_digest (Engine.Atpg s'))

(* --- spec range check ------------------------------------------------ *)

(* (field, value, in range?) — every out-of-range value the check must
   refuse, and the boundary values it must keep. *)
let range_cases =
  [
    ("random_lanes", 65, false);
    ("random_lanes", 1000, false);
    ("random_lanes", -3, false);
    ("random_lanes", 0, false);
    ("max_frames", -2, false);
    ("max_frames", 65, false);
    ("random_cycles", -1, false);
    ("random_batches", -1, false);
    ("max_backtracks", -1, false);
    ("bits", -4, false);
    ("bits", 0, false);
    ("bits", 33, false);
    ("bits", 1000, false);
    ("random_lanes", 1, true);
    ("random_lanes", 64, true);
    ("random_cycles", 0, true);
    ("max_frames", 0, true);
    ("max_frames", 64, true);
    ("max_backtracks", 0, true);
    ("bits", 1, true);
    ("bits", 32, true);
  ]

let test_spec_range_check () =
  let base = spec_exn ~bench:"tseng" ~approach:Flows.Ours ~bits:4 () in
  (* the same spec record, built without the check *)
  let raw name v =
    let a = base.Engine.atpg in
    let atpg =
      match name with
      | "bits" -> a
      | "random_lanes" -> { a with Atpg.random_lanes = v }
      | "random_cycles" -> { a with Atpg.random_cycles = v }
      | "random_batches" -> { a with Atpg.random_batches = v }
      | "max_frames" -> { a with Atpg.max_frames = v }
      | "max_backtracks" -> { a with Atpg.max_backtracks = v }
      | other -> Alcotest.failf "no such field %s" other
    in
    let bits = if name = "bits" then v else base.Engine.bits in
    { base with Engine.atpg; bits }
  in
  List.iter
    (fun (name, v, ok) ->
      let s = raw name v in
      let expect how = function
        | Ok _ when ok -> ()
        | Error e when not ok ->
          if not (String.starts_with ~prefix:(Printf.sprintf "field %S" name) e)
          then
            Alcotest.failf "%s = %d via %s: error %S does not name the field"
              name v how e
        | Ok _ -> Alcotest.failf "%s = %d via %s: accepted" name v how
        | Error e -> Alcotest.failf "%s = %d via %s: refused (%s)" name v how e
      in
      expect "spec"
        (Engine.spec ~atpg:s.Engine.atpg ~bench:"tseng" ~approach:Flows.Ours
           ~bits:s.Engine.bits ());
      expect "json" (Engine.spec_of_json (Engine.spec_to_json s)))
    range_cases

(* --- the request decoder on arbitrary JSON ------------------------------- *)

(* Objects shaped like requests: each field of the schema is present or
   not and holds a plausible value or any JSON value, so most trees get
   past the first field checks. Such a tree may be a valid request:
   what the decoder accepts must then re-encode to the same request. *)
let prop_request_of_json_total =
  let open QCheck.Gen in
  let text = string_size ~gen:printable (0 -- 6) in
  let any =
    sized_size (0 -- 2)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) float;
                 map (fun s -> Json.Str s) text;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Json.List l) (list_size (0 -- 3) (self (n - 1)));
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 3) (pair text (self (n - 1))));
               ])
  in
  let obj fields =
    map
      (fun l -> Json.Obj (List.filter_map Fun.id l))
      (flatten_l
         (List.map
            (fun (k, v) ->
              opt ~ratio:0.9 (pair (return k) (frequency [ (9, v); (1, any) ])))
            fields))
  in
  let str words =
    map (fun s -> Json.Str s) (frequency [ (9, oneofa words); (1, text) ])
  in
  let small = map (fun i -> Json.Int i) (int_range (-2) 20) in
  let real = map (fun f -> Json.Float f) (float_range (-1.0) 4.0) in
  let params =
    obj
      [
        ("k", small); ("alpha", real); ("beta", real); ("bits", small);
        ("strategy", str [| "balance"; "connectivity" |]);
        ("stop", str [| "cost_improving"; "exhaustive" |]);
        ("latency_factor", real); ("max_iterations", small);
      ]
  and atpg =
    obj
      [
        ("seed", small); ("random_lanes", small); ("random_cycles", small);
        ("random_batches", small); ("max_frames", small);
        ("max_backtracks", small);
        ("collapse_gate_inputs", map (fun b -> Json.Bool b) bool);
      ]
  in
  let spec =
    obj
      [
        ("bench", str [| "tseng"; "ex"; "toy" |]);
        ("approach", str [| "ours"; "camad"; "a1"; "approach2" |]);
        ("bits", small); ("params", params); ("atpg", atpg);
      ]
  in
  let request =
    obj
      [
        ("op", str [| "synth"; "testability"; "atpg"; "sweep"; "ping" |]);
        ("spec", spec);
        ("cells", map (fun l -> Json.List l) (list_size (0 -- 3) spec));
      ]
  in
  QCheck.Test.make ~name:"request_of_json total on random JSON" ~count:1000
    (QCheck.make ~print:Json.to_string (frequency [ (9, request); (1, any) ]))
    (fun j ->
      match Engine.request_of_json j with
      | Error (_ : string) -> true
      | Ok req -> (
        match Engine.request_of_json (Engine.request_to_json req) with
        | Ok req' -> Engine.request_digest req' = Engine.request_digest req
        | Error (_ : string) -> false))

(* The buffered request key against the Printf rendering it replaced,
   on specs no caller makes: floats from raw bit patterns (negative,
   subnormal, NaN, infinite), any int, both booleans. Records are built
   directly, past the range check, so every field varies freely. *)
let prop_spec_digest_oracle =
  let gen =
    let open QCheck.Gen in
    let float =
      frequency
        [ (3, map Int64.float_of_bits ui64); (1, oneofl [ 0.0; -0.0; 1.0; Float.nan ]) ]
    in
    let* bench = oneofl [ "toy"; "tseng"; "ex"; "ewf" ] in
    let* approach = oneofl Flows.[ Camad; Approach1; Approach2; Ours ] in
    let* bits = int in
    let* k = int and* alpha = float and* beta = float and* pbits = int in
    let* strategy =
      oneofl Hlts_synth.Candidates.[ Balance; Connectivity ]
    and* stop = oneofl Synth.[ Cost_improving; Exhaustive ] in
    let* latency_factor = float and* max_iterations = int in
    let* seed = int and* random_lanes = int and* random_cycles = int in
    let* random_batches = int and* max_frames = int and* max_backtracks = int in
    let+ collapse_gate_inputs = bool in
    let base = spec_exn ~bench ~approach:Flows.Ours ~bits:4 () in
    {
      base with
      Engine.approach;
      bits;
      params =
        { Synth.k; alpha; beta; bits = pbits; strategy; stop; latency_factor;
          max_iterations };
      atpg =
        { Atpg.seed; random_lanes; random_cycles; random_batches; max_frames;
          max_backtracks; collapse_gate_inputs };
    }
  in
  QCheck.Test.make ~name:"spec_digest = Printf key" ~count:300
    (QCheck.make gen)
    (fun s ->
      List.for_all
        (fun (op, with_atpg) ->
          Engine.spec_digest ~op ~with_atpg s
          = Oracle.spec_digest ~op ~with_atpg s)
        [ ("atpg", true); ("synth", false); ("outcome", false) ])

let () =
  Alcotest.run "hlts_cache"
    [
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "lru eviction" `Quick test_mem_lru_eviction;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "mem-only" `Quick test_mem_only_skips_disk;
          Alcotest.test_case "corrupt entries" `Quick
            test_corrupt_detected_and_evicted;
          Alcotest.test_case "scan and clear" `Quick test_scan_and_clear;
        ] );
      ( "digests",
        [
          Alcotest.test_case "dfg reorder invariant" `Quick
            test_dfg_digest_reorder_invariant;
          test_dfg_digest_reorder_qcheck ();
          Alcotest.test_case "request sensitivity" `Quick
            test_request_digest_sensitivity;
          Alcotest.test_case "json roundtrip" `Quick test_request_json_roundtrip;
          Alcotest.test_case "spec range check" `Quick test_spec_range_check;
          QCheck_alcotest.to_alcotest prop_request_of_json_total;
          QCheck_alcotest.to_alcotest prop_spec_digest_oracle;
        ] );
      ( "engine",
        [
          Alcotest.test_case "cold = warm" `Quick
            test_engine_cold_warm_identical;
          Alcotest.test_case "stored digests, every kind" `Quick
            test_stored_digests_every_kind;
          Alcotest.test_case "warm sweep: one lookup" `Quick
            test_warm_sweep_one_lookup;
          Alcotest.test_case "hlts-cache/1 entry evicted" `Quick
            test_old_format_evicted;
        ] );
    ]
