(* Tests for Hlts_dfg: operation vocabulary, DAG invariants, benchmark
   inventories matching the paper's tables. *)

open Hlts_dfg

let kind = Alcotest.testable Op.pp_kind ( = )

(* --- Op ------------------------------------------------------------- *)

let all_kinds =
  [
    Op.Add; Op.Sub; Op.Mul; Op.Lt; Op.Gt; Op.Le; Op.Ge; Op.Eq; Op.Ne;
    Op.And; Op.Or; Op.Xor;
  ]

let test_symbol_roundtrip () =
  let check k =
    match Op.kind_of_symbol (Op.symbol k) with
    | Some k' -> Alcotest.check kind "roundtrip" k k'
    | None -> Alcotest.failf "no parse for %s" (Op.symbol k)
  in
  List.iter check all_kinds;
  Alcotest.(check bool) "junk" true (Op.kind_of_symbol "%%" = None)

let test_supports_consistency () =
  (* classes_for must agree with supports, and never be empty. *)
  let check k =
    let classes = Op.classes_for k in
    Alcotest.(check bool) "some class" true (classes <> []);
    List.iter
      (fun c -> Alcotest.(check bool) "supports" true (Op.supports c k))
      classes
  in
  List.iter check all_kinds

let test_shared_class () =
  (* Adds and subs share an ALU; a mul shares with nothing else. *)
  Alcotest.(check bool) "add+sub -> alu" true
    (Op.shared_class [ Op.Add; Op.Sub ] = Some Op.Fu_alu);
  Alcotest.(check bool) "add alone -> adder" true
    (Op.shared_class [ Op.Add ] = Some Op.Fu_adder);
  Alcotest.(check bool) "mul+add -> none" true
    (Op.shared_class [ Op.Mul; Op.Add ] = None);
  Alcotest.(check bool) "mul+mul -> multiplier" true
    (Op.shared_class [ Op.Mul; Op.Mul ] = Some Op.Fu_multiplier);
  Alcotest.(check bool) "empty -> none" true (Op.shared_class [] = None);
  Alcotest.(check bool) "add+lt -> alu" true
    (Op.shared_class [ Op.Add; Op.Lt ] = Some Op.Fu_alu)

let test_comparisons () =
  List.iter
    (fun k ->
      let expected = List.mem k [ Op.Lt; Op.Gt; Op.Le; Op.Ge; Op.Eq; Op.Ne ] in
      Alcotest.(check bool) (Op.symbol k) expected (Op.is_comparison k))
    all_kinds

(* --- Dfg validation -------------------------------------------------- *)

let mk ?(name = "t") ?(inputs = [ "a"; "b" ]) ?(outputs = []) ops =
  { Dfg.name; inputs; ops; outputs }

let bop id k result a b = { Dfg.id; kind = k; args = (a, b); result }

let expect_error what d =
  match Dfg.validate d with
  | Ok () -> Alcotest.failf "expected %s to be rejected" what
  | Error _ -> ()

let test_validate_ok () =
  match Dfg.validate Benchmarks.toy with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "toy should validate: %s" msg

let test_validate_dup_id () =
  expect_error "duplicate id"
    (mk
       [
         bop 1 Op.Add "x" (Dfg.Input "a") (Dfg.Input "b");
         bop 1 Op.Add "y" (Dfg.Input "a") (Dfg.Input "b");
       ])

let test_validate_dup_name () =
  expect_error "duplicate name"
    (mk
       [
         bop 1 Op.Add "x" (Dfg.Input "a") (Dfg.Input "b");
         bop 2 Op.Add "x" (Dfg.Input "a") (Dfg.Input "b");
       ]);
  expect_error "name clashes with input"
    (mk [ bop 1 Op.Add "a" (Dfg.Input "a") (Dfg.Input "b") ])

let test_validate_unknown_refs () =
  expect_error "unknown input"
    (mk [ bop 1 Op.Add "x" (Dfg.Input "zz") (Dfg.Input "b") ]);
  expect_error "unknown op"
    (mk [ bop 1 Op.Add "x" (Dfg.Op 9) (Dfg.Input "b") ]);
  expect_error "bad output"
    (mk ~outputs:[ "nope" ] [ bop 1 Op.Add "x" (Dfg.Input "a") (Dfg.Input "b") ])

let test_validate_cycle () =
  expect_error "cycle"
    (mk
       [
         bop 1 Op.Add "x" (Dfg.Op 2) (Dfg.Input "a");
         bop 2 Op.Add "y" (Dfg.Op 1) (Dfg.Input "b");
       ])

let test_validate_condition_as_data () =
  expect_error "comparison used as data"
    (mk
       [
         bop 1 Op.Lt "cond" (Dfg.Input "a") (Dfg.Input "b");
         bop 2 Op.Add "x" (Dfg.Op 1) (Dfg.Input "b");
       ]);
  expect_error "comparison as output"
    (mk ~outputs:[ "cond" ]
       [ bop 1 Op.Lt "cond" (Dfg.Input "a") (Dfg.Input "b") ])

(* --- Dfg queries ------------------------------------------------------ *)

let test_topo_order () =
  let check (_, d) =
    let order = Dfg.topo_order d in
    Alcotest.(check int) "same ops" (List.length d.Dfg.ops) (List.length order);
    let seen = Hashtbl.create 16 in
    let visit o =
      List.iter
        (fun p ->
          if not (Hashtbl.mem seen p) then
            Alcotest.failf "%s: N%d before its pred N%d" d.Dfg.name o.Dfg.id p)
        (Dfg.pred_ids o);
      Hashtbl.add seen o.Dfg.id ()
    in
    List.iter visit order
  in
  List.iter check Benchmarks.all

let test_succs_inverse_of_preds () =
  let check (_, d) =
    List.iter
      (fun o ->
        List.iter
          (fun p ->
            if not (List.mem o.Dfg.id (Dfg.succ_ids d p)) then
              Alcotest.failf "%s: succ/pred mismatch at N%d" d.Dfg.name o.Dfg.id)
          (Dfg.pred_ids o))
      d.Dfg.ops
  in
  List.iter check Benchmarks.all

let test_uses_of_value () =
  let d = Benchmarks.toy in
  (* input a is read by op 1 (s := a + b) and op 3 (q := p - a) *)
  Alcotest.(check (list int)) "uses of a" [ 1; 3 ]
    (List.sort compare (Dfg.uses_of_value d (Dfg.V_input "a")));
  Alcotest.(check (list int)) "uses of s" [ 2 ]
    (Dfg.uses_of_value d (Dfg.V_op 1))

let test_values_exclude_conditions () =
  let d = Benchmarks.diffeq in
  let names = List.map (Dfg.value_name d) (Dfg.values d) in
  Alcotest.(check bool) "cond not a value" false (List.mem "cond" names);
  Alcotest.(check bool) "u1 is a value" true (List.mem "u1" names)

let test_longest_chain () =
  Alcotest.(check int) "toy chain" 3 (Dfg.longest_chain Benchmarks.toy);
  (* diffeq: t1/t2 -> t3 -> t6 -> u1 is the longest chain (4). *)
  Alcotest.(check int) "diffeq chain" 4 (Dfg.longest_chain Benchmarks.diffeq)

(* --- benchmark inventories (the paper's tables) ----------------------- *)

let count k d = try List.assoc k (Dfg.kind_counts d) with Not_found -> 0

let test_ex_inventory () =
  let d = Benchmarks.ex in
  Alcotest.(check int) "mults" 4 (count Op.Mul d);
  Alcotest.(check int) "subs" 3 (count Op.Sub d);
  Alcotest.(check int) "adds" 1 (count Op.Add d);
  Alcotest.(check int) "ops" 8 (List.length d.Dfg.ops);
  let ids = List.sort compare (List.map (fun o -> o.Dfg.id) d.Dfg.ops) in
  Alcotest.(check (list int)) "paper node ids" [ 21; 22; 24; 25; 27; 28; 29; 30 ] ids

let test_dct_inventory () =
  let d = Benchmarks.dct in
  Alcotest.(check int) "mults" 5 (count Op.Mul d);
  Alcotest.(check int) "adds" 6 (count Op.Add d);
  Alcotest.(check int) "subs" 2 (count Op.Sub d);
  Alcotest.(check int) "ops" 13 (List.length d.Dfg.ops)

let test_diffeq_inventory () =
  let d = Benchmarks.diffeq in
  Alcotest.(check int) "mults" 6 (count Op.Mul d);
  Alcotest.(check int) "adds" 2 (count Op.Add d);
  Alcotest.(check int) "subs" 2 (count Op.Sub d);
  Alcotest.(check int) "cmps" 1 (count Op.Lt d);
  let ids = List.sort compare (List.map (fun o -> o.Dfg.id) d.Dfg.ops) in
  Alcotest.(check (list int)) "paper node ids"
    [ 24; 25; 26; 27; 29; 30; 31; 33; 34; 35; 36 ]
    ids

let test_ewf_inventory () =
  let d = Benchmarks.ewf in
  Alcotest.(check int) "adds" 26 (count Op.Add d);
  Alcotest.(check int) "mults" 8 (count Op.Mul d);
  Alcotest.(check int) "ops" 34 (List.length d.Dfg.ops)

let test_ar_fir_inventory () =
  let ar = Benchmarks.ar in
  Alcotest.(check int) "ar mults" 16 (count Op.Mul ar);
  Alcotest.(check int) "ar adds" 12 (count Op.Add ar);
  let fir = Benchmarks.fir in
  Alcotest.(check int) "fir mults" 8 (count Op.Mul fir);
  Alcotest.(check int) "fir adds" 7 (count Op.Add fir);
  (* a balanced 8-leaf product tree is 4 levels deep *)
  Alcotest.(check int) "fir chain" 4 (Dfg.longest_chain fir)

let test_all_validate () =
  let check (name, d) =
    match Dfg.validate d with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  List.iter check Benchmarks.all

let test_find () =
  Alcotest.(check bool) "finds diffeq" true (Benchmarks.find "DiffEq" <> None);
  Alcotest.(check bool) "unknown" true (Benchmarks.find "nonesuch" = None)

let test_find_result () =
  (match Benchmarks.find_result "tseng" with
  | Ok d -> Alcotest.(check string) "named lookup" "tseng" d.Dfg.name
  | Error e -> Alcotest.fail e);
  (match Benchmarks.find_result "rnd-s11-n20" with
  | Ok d ->
    Alcotest.(check int) "synthetic op count" 20 (List.length d.Dfg.ops)
  | Error e -> Alcotest.fail e);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Benchmarks.find_result "nonesuch" with
  | Ok _ -> Alcotest.fail "nonesuch resolved"
  | Error e ->
    List.iter
      (fun part ->
        Alcotest.(check bool) ("error mentions " ^ part) true (contains e part))
      ("rnd-s<seed>-n<ops>" :: Benchmarks.names));
  match Benchmarks.find_result "rnd-s1-n0" with
  | Ok _ -> Alcotest.fail "rnd-s1-n0 resolved"
  | Error e ->
    Alcotest.(check bool) "malformed rnd diagnosed" true
      (contains e "ops >= 1")

let prop_value_of_name_roundtrip =
  QCheck.Test.make ~name:"value_of_name inverts value_name" ~count:50
    QCheck.(int_bound (List.length Benchmarks.all - 1))
    (fun i ->
      let _, d = List.nth Benchmarks.all i in
      List.for_all
        (fun v ->
          match Dfg.value_of_name d (Dfg.value_name d v) with
          | Some v' -> v = v'
          | None -> false)
        (Dfg.values d))

(* Every value a query can name: data values, comparison results (never
   read), and an input the design does not have. *)
let probe_values d =
  Dfg.values d
  @ List.map (fun o -> Dfg.V_op o.Dfg.id) d.Dfg.ops
  @ [ Dfg.V_input "nonesuch" ]

let prop_value_index_coherent =
  QCheck.Test.make ~name:"uses_of_value/is_output = list scans" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = Random_dfg.make seed in
      List.for_all
        (fun v ->
          Dfg.uses_of_value d v = Oracle.uses_of_value d v
          && Dfg.is_output d v = Oracle.is_output d v)
        (probe_values d))

let test_value_index_shared_operands () =
  (* one op reading an input through both operands lists it once *)
  let d =
    Dfg.validate_exn
      {
        Dfg.name = "twice";
        inputs = [ "a"; "b" ];
        ops =
          [
            { Dfg.id = 1; kind = Op.Mul; args = (Dfg.Input "a", Dfg.Input "a"); result = "sq" };
            { Dfg.id = 2; kind = Op.Add; args = (Dfg.Op 1, Dfg.Input "a"); result = "s" };
            { Dfg.id = 3; kind = Op.Add; args = (Dfg.Op 2, Dfg.Op 2); result = "t" };
          ];
        outputs = [ "t"; "b" ];
      }
  in
  Alcotest.(check (list int)) "a" [ 1; 2 ] (Dfg.uses_of_value d (Dfg.V_input "a"));
  Alcotest.(check (list int)) "b unread" [] (Dfg.uses_of_value d (Dfg.V_input "b"));
  Alcotest.(check (list int)) "s" [ 3 ] (Dfg.uses_of_value d (Dfg.V_op 2));
  Alcotest.(check bool) "input output" true (Dfg.is_output d (Dfg.V_input "b"));
  Alcotest.(check bool) "op output" true (Dfg.is_output d (Dfg.V_op 3));
  Alcotest.(check bool) "internal" false (Dfg.is_output d (Dfg.V_op 1));
  List.iter
    (fun v ->
      Alcotest.(check (list int)) "= scan" (Oracle.uses_of_value d v)
        (Dfg.uses_of_value d v))
    (probe_values d)

(* --- content digest, memoized per design value ------------------------ *)

(* Every benchmark and 20 random graphs: more designs than the digest
   memo holds, so a pass over them evicts as well as hits. The random
   graphs share one name, which a digest must not key on. *)
let digest_designs seed =
  List.map snd Benchmarks.all
  @ List.init 20 (fun k -> { (Random_dfg.make (seed + k)) with Dfg.name = "rnd" })

let prop_digest_memo_oracle =
  QCheck.Test.make ~name:"digest = uncached digest" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ds = digest_designs seed in
      List.for_all
        (fun d -> Dfg.digest d = Oracle.dfg_digest d)
        (ds @ List.rev ds @ ds))

(* Copies share no record with what they copy, so the memo cannot
   answer them by identity; each is digested after the originals, which
   the memo then holds. *)
let prop_digest_copy =
  QCheck.Test.make ~name:"digest of a physical copy" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ds = digest_designs seed in
      let want = List.map Dfg.digest ds in
      List.for_all
        (fun copy ->
          let copies = List.map copy ds in
          List.for_all2 ( != ) copies ds
          && List.rev_map Dfg.digest (List.rev copies) = want)
        [
          (fun d -> { d with Dfg.name = d.Dfg.name ^ "'" });
          (fun d -> Marshal.from_string (Marshal.to_string d []) 0);
          (fun d -> { d with Dfg.ops = List.rev d.Dfg.ops });
        ])

(* Two domains digest the same fresh designs in the same order, so
   they miss, publish and evict together. *)
let prop_digest_domains =
  QCheck.Test.make ~name:"digest agrees across two domains" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ds = List.init 40 (fun k -> Random_dfg.make (seed + k)) in
      let want = List.map Oracle.dfg_digest ds in
      let run () = Domain.spawn (fun () -> List.map Dfg.digest ds) in
      let a = run () and b = run () in
      let ra = Domain.join a and rb = Domain.join b in
      ra = want && rb = want)

let () =
  Alcotest.run "hlts_dfg"
    [
      ( "op",
        [
          Alcotest.test_case "symbol roundtrip" `Quick test_symbol_roundtrip;
          Alcotest.test_case "supports consistent" `Quick test_supports_consistency;
          Alcotest.test_case "shared_class" `Quick test_shared_class;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
        ] );
      ( "validate",
        [
          Alcotest.test_case "toy ok" `Quick test_validate_ok;
          Alcotest.test_case "dup id" `Quick test_validate_dup_id;
          Alcotest.test_case "dup name" `Quick test_validate_dup_name;
          Alcotest.test_case "unknown refs" `Quick test_validate_unknown_refs;
          Alcotest.test_case "cycle" `Quick test_validate_cycle;
          Alcotest.test_case "condition as data" `Quick test_validate_condition_as_data;
        ] );
      ( "queries",
        [
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "succ/pred inverse" `Quick test_succs_inverse_of_preds;
          Alcotest.test_case "uses_of_value" `Quick test_uses_of_value;
          Alcotest.test_case "values exclude conditions" `Quick
            test_values_exclude_conditions;
          Alcotest.test_case "longest chain" `Quick test_longest_chain;
          QCheck_alcotest.to_alcotest prop_value_of_name_roundtrip;
          Alcotest.test_case "value index: shared operands" `Quick
            test_value_index_shared_operands;
          QCheck_alcotest.to_alcotest prop_value_index_coherent;
          QCheck_alcotest.to_alcotest prop_digest_memo_oracle;
          QCheck_alcotest.to_alcotest prop_digest_copy;
          QCheck_alcotest.to_alcotest prop_digest_domains;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "ex inventory" `Quick test_ex_inventory;
          Alcotest.test_case "dct inventory" `Quick test_dct_inventory;
          Alcotest.test_case "diffeq inventory" `Quick test_diffeq_inventory;
          Alcotest.test_case "ewf inventory" `Quick test_ewf_inventory;
          Alcotest.test_case "ar/fir inventory" `Quick test_ar_fir_inventory;
          Alcotest.test_case "all validate" `Quick test_all_validate;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "find_result" `Quick test_find_result;
        ] );
    ]
