(* Tests for Hlts_alloc: lifetimes, left-edge register allocation, module
   binding, and the binding validator. *)

open Hlts_alloc
module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module B = Hlts_dfg.Benchmarks
module Schedule = Hlts_sched.Schedule
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic

let asap d = Basic.asap_exn (Constraints.of_dfg d)

(* --- lifetimes --------------------------------------------------------- *)

let test_toy_lifetimes () =
  (* toy: N1 s := a+b @1; N2 p := s*c @2; N3 q := p-a @3; q is output *)
  let d = B.toy in
  let s = asap d in
  let iv v = Lifetime.interval_of d s (Option.get (Dfg.value_of_name d v)) in
  Alcotest.(check (pair int int)) "a: born 1, read through 3" (1, 4)
    ((iv "a").Lifetime.birth, (iv "a").Lifetime.death);
  Alcotest.(check (pair int int)) "s: born 2, read at 2" (2, 3)
    ((iv "s").Lifetime.birth, (iv "s").Lifetime.death);
  (* q: output, written at 3, virtually read at length+1 = 4 *)
  Alcotest.(check (pair int int)) "q holds to the end" (4, 5)
    ((iv "q").Lifetime.birth, (iv "q").Lifetime.death)

let test_overlap () =
  let mk birth death = { Lifetime.birth; death } in
  Alcotest.(check bool) "disjoint" false (Lifetime.overlap (mk 1 3) (mk 3 5));
  Alcotest.(check bool) "nested" true (Lifetime.overlap (mk 1 5) (mk 2 3));
  Alcotest.(check bool) "partial" true (Lifetime.overlap (mk 1 4) (mk 3 6));
  Alcotest.(check bool) "disjoint set" true
    (Lifetime.disjoint_set [ mk 1 2; mk 2 4; mk 4 9 ]);
  Alcotest.(check bool) "overlapping set" false
    (Lifetime.disjoint_set [ mk 1 3; mk 2 4 ])

let prop_death_after_birth =
  QCheck.Test.make ~name:"death > birth always" ~count:50
    QCheck.(int_bound (List.length B.all - 1))
    (fun i ->
      let _, d = List.nth B.all i in
      let s = asap d in
      List.for_all
        (fun (_, iv) -> iv.Lifetime.death > iv.Lifetime.birth)
        (Lifetime.of_schedule d s))

let prop_occupancy_sums_intervals =
  (* the dense SR2 metric and the per-value lifetimes agree, under ASAP
     and under a stretched ALAP schedule *)
  QCheck.Test.make ~name:"occupancy = summed of_schedule intervals" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (seed, slack) ->
      let d = Random_dfg.make seed in
      let cons = Constraints.of_dfg d in
      let a = Basic.asap_exn cons in
      let latency = Schedule.length a + slack in
      let schedules =
        match Basic.alap cons ~latency with Ok l -> [ a; l ] | Error _ -> [ a ]
      in
      List.for_all
        (fun s ->
          let ivs = Lifetime.of_schedule d s in
          let steps =
            Array.of_list (List.map (fun o -> Schedule.step s o.Dfg.id) d.Dfg.ops)
          in
          Lifetime.occupancy d steps
          = ( List.fold_left
                (fun acc (_, iv) -> acc + (iv.Lifetime.death - iv.Lifetime.birth))
                0 ivs,
              Schedule.length s )
          && List.for_all (fun (v, iv) -> Lifetime.interval_of d s v = iv) ivs)
        schedules)

(* --- left edge --------------------------------------------------------- *)

let test_left_edge_valid_everywhere () =
  List.iter
    (fun (name, d) ->
      let s = asap d in
      let regs = Binding.left_edge d s in
      (* every value exactly once *)
      let stored = List.concat_map (fun r -> r.Binding.reg_values) regs in
      Alcotest.(check int) (name ^ " all values")
        (List.length (Dfg.values d))
        (List.length stored);
      (* disjoint lifetimes per register *)
      List.iter
        (fun r ->
          let ivs = List.map (Lifetime.interval_of d s) r.Binding.reg_values in
          Alcotest.(check bool) (name ^ " disjoint") true (Lifetime.disjoint_set ivs))
        regs)
    B.all

let test_left_edge_shares () =
  (* ex under ASAP has 14 values; sharing must use strictly fewer
     registers than values. *)
  let d = B.ex in
  let regs = Binding.left_edge d (asap d) in
  Alcotest.(check bool) "fewer regs than values" true
    (List.length regs < List.length (Dfg.values d))

let test_left_edge_optimal_count () =
  (* left-edge is optimal for interval graphs: register count equals the
     max number of simultaneously live values *)
  let d = B.diffeq in
  let s = asap d in
  let lifetimes = Lifetime.of_schedule d s in
  let max_live = ref 0 in
  for step = 0 to Schedule.length s + 1 do
    let live =
      List.length
        (List.filter
           (fun (_, iv) -> iv.Lifetime.birth <= step && step < iv.Lifetime.death)
           lifetimes)
    in
    max_live := max !max_live live
  done;
  Alcotest.(check int) "optimal" !max_live
    (List.length (Binding.left_edge d s))

let test_prefer_io () =
  let d = B.diffeq in
  let s = asap d in
  let regs = Binding.left_edge ~prefer_io:true d s in
  let is_io v =
    match v with
    | Dfg.V_input _ -> true
    | Dfg.V_op _ -> Dfg.is_output d v
  in
  (* Lee's rule 1: wherever a register could hold an I/O value, its first
     (seed) value is one. Weak check: at least as many registers hold an
     I/O value as with the plain ordering. *)
  let io_regs regs =
    List.length
      (List.filter (fun r -> List.exists is_io r.Binding.reg_values) regs)
  in
  Alcotest.(check bool) "at least as many io-anchored" true
    (io_regs regs >= io_regs (Binding.left_edge d s))

(* --- module binding ----------------------------------------------------- *)

let test_bind_modules_valid_everywhere () =
  List.iter
    (fun (name, d) ->
      let s = asap d in
      let fus = Binding.bind_modules d s in
      let bound = List.concat_map (fun fu -> fu.Binding.fu_ops) fus in
      Alcotest.(check int) (name ^ " all ops") (List.length d.Dfg.ops)
        (List.length bound);
      List.iter
        (fun fu ->
          (* class supports all ops; steps pairwise distinct *)
          List.iter
            (fun id ->
              Alcotest.(check bool) (name ^ " class ok") true
                (Op.supports fu.Binding.fu_class (Dfg.op_by_id d id).Dfg.kind))
            fu.Binding.fu_ops;
          let steps = List.map (Schedule.step s) fu.Binding.fu_ops in
          Alcotest.(check int) (name ^ " steps distinct")
            (List.length steps)
            (List.length (List.sort_uniq compare steps)))
        fus)
    B.all

let test_bind_modules_shares () =
  (* diffeq ASAP: 6 muls at depth<=2 ... sharing must still merge the
     sequentializable ones; at minimum fewer units than ops overall. *)
  let d = B.ewf in
  let fus = Binding.bind_modules d (asap d) in
  Alcotest.(check bool) "shares units" true
    (List.length fus < List.length d.Dfg.ops)

(* --- default + validate -------------------------------------------------- *)

let test_default_validates () =
  List.iter
    (fun (name, d) ->
      let s = asap d in
      match Binding.validate d s (Binding.default d) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    B.all

let test_allocate_validates () =
  List.iter
    (fun (name, d) ->
      let s = asap d in
      match Binding.validate d s (Binding.allocate d s) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    B.all

let test_validate_rejects () =
  let d = B.toy in
  let s = asap d in
  let good = Binding.allocate d s in
  (* duplicate value *)
  let dup =
    {
      good with
      Binding.registers =
        { Binding.reg_id = 99; reg_values = [ Dfg.V_input "a" ] }
        :: good.Binding.registers;
    }
  in
  (match Binding.validate d s dup with
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.fail "duplicate value accepted");
  (* unit running two ops in one step: toy ops 1,2,3 are chained, so force
     two ops into one unit after rescheduling them to the same step is not
     possible; instead drop a register *)
  let missing = { good with Binding.registers = List.tl good.Binding.registers } in
  match Binding.validate d s missing with
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.fail "missing register accepted"

let test_validate_rejects_bad_class () =
  let d = B.ex in
  let s = asap d in
  (* bind a multiplication into an adder unit *)
  let bad =
    {
      Binding.registers = Binding.left_edge d s;
      fus =
        [
          { Binding.fu_id = 0; fu_class = Op.Fu_adder;
            fu_ops = List.map (fun o -> o.Dfg.id) d.Dfg.ops };
        ];
    }
  in
  match Binding.validate d s bad with
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.fail "adder running muls accepted"

let test_validate_rejects_same_step_sharing () =
  let d = B.ex in
  let s = asap d in
  (* N21 and N22 are both multiplications at ASAP step 1 *)
  let regs = Binding.left_edge d s in
  let other_ops =
    List.filter (fun o -> o.Dfg.id <> 21 && o.Dfg.id <> 22) d.Dfg.ops
  in
  let bad =
    {
      Binding.registers = regs;
      fus =
        { Binding.fu_id = 0; fu_class = Op.Fu_multiplier; fu_ops = [ 21; 22 ] }
        :: List.mapi
             (fun i o ->
               {
                 Binding.fu_id = i + 1;
                 fu_class = List.hd (Op.classes_for o.Dfg.kind);
                 fu_ops = [ o.Dfg.id ];
               })
             other_ops;
    }
  in
  match Binding.validate d s bad with
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.fail "same-step sharing accepted"

(* --- validate against its hashtable oracle ------------------------------ *)

module Rng = Hlts_util.Rng

(* One random edit of [b], mostly one that breaks it: a value or an
   operation dropped from its holder or copied into another (held by 0
   or 2), two registers or two units merged (overlapping lifetimes, two
   operations in one step), a unit's class replaced, or a value or an
   operation listed twice by one holder. *)
let mutate rng d (b : Binding.t) =
  let regs = Array.of_list b.Binding.registers
  and fus = Array.of_list b.Binding.fus in
  let nr = Array.length regs and nf = Array.length fus in
  let reg i f = regs.(i) <- { (regs.(i)) with Binding.reg_values = f regs.(i).Binding.reg_values } in
  let fu i f = fus.(i) <- { (fus.(i)) with Binding.fu_ops = f fus.(i).Binding.fu_ops } in
  let twice = function x :: _ as l -> l @ [ x ] | [] -> [] in
  (match Rng.int rng 9 with
  | 0 when nr > 0 -> reg (Rng.int rng nr) (function _ :: l -> l | [] -> [])
  | 1 when nr > 0 ->
    let v = Rng.pick rng (Array.of_list (Dfg.values d)) in
    reg (Rng.int rng nr) (fun l -> l @ [ v ])
  | 2 when nr > 1 ->
    let i = Rng.int rng nr and j = Rng.int rng nr in
    if i <> j then begin
      reg i (fun l -> l @ regs.(j).Binding.reg_values);
      reg j (fun _ -> [])
    end
  | 3 when nf > 1 ->
    let i = Rng.int rng nf and j = Rng.int rng nf in
    if i <> j then begin
      let ops = fus.(j).Binding.fu_ops in
      fu i (fun l -> l @ ops);
      fus.(j) <- { (fus.(j)) with Binding.fu_ops = [] }
    end
  | 4 when nf > 0 ->
    let i = Rng.int rng nf in
    fus.(i) <-
      {
        (fus.(i)) with
        Binding.fu_class =
          Rng.pick rng
            [| Op.Fu_adder; Op.Fu_subtractor; Op.Fu_alu; Op.Fu_multiplier;
               Op.Fu_comparator; Op.Fu_logic |];
      }
  | 5 when nr > 0 -> reg (Rng.int rng nr) twice
  | 6 when nf > 0 -> fu (Rng.int rng nf) twice
  | 7 when nf > 0 -> fu (Rng.int rng nf) (function _ :: l -> l | [] -> [])
  | 8 when nf > 0 ->
    let o = Rng.pick rng (Array.of_list d.Dfg.ops) in
    fu (Rng.int rng nf) (fun l -> l @ [ o.Dfg.id ])
  | _ -> ());
  (* emptied holders leave the binding *)
  {
    Binding.registers =
      List.filter (fun r -> r.Binding.reg_values <> []) (Array.to_list regs);
    fus = List.filter (fun f -> f.Binding.fu_ops <> []) (Array.to_list fus);
  }

let prop_validate_matches_oracle =
  QCheck.Test.make ~name:"validate = oracle" ~count:300
    QCheck.(triple (int_bound 1_000_000) bool (int_bound 4))
    (fun (seed, asap_steps, edits) ->
      let rng = Rng.create seed in
      let d = Random_dfg.make seed in
      let s =
        if asap_steps then asap d
        else
          Schedule.of_assoc
            (List.map (fun o -> (o.Dfg.id, 1 + Rng.int rng 4)) d.Dfg.ops)
      in
      let b = if Rng.bool rng then Binding.allocate d s else Binding.default d in
      let rec edit b k = if k = 0 then b else edit (mutate rng d b) (k - 1) in
      let b = edit b edits in
      let run f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
      run (fun () -> Binding.validate d s b)
      = run (fun () -> Oracle.binding_validate d s b))

let () =
  Alcotest.run "hlts_alloc"
    [
      ( "lifetime",
        [
          Alcotest.test_case "toy lifetimes" `Quick test_toy_lifetimes;
          Alcotest.test_case "overlap" `Quick test_overlap;
          QCheck_alcotest.to_alcotest prop_death_after_birth;
          QCheck_alcotest.to_alcotest prop_occupancy_sums_intervals;
        ] );
      ( "left_edge",
        [
          Alcotest.test_case "valid everywhere" `Quick test_left_edge_valid_everywhere;
          Alcotest.test_case "shares" `Quick test_left_edge_shares;
          Alcotest.test_case "optimal count" `Quick test_left_edge_optimal_count;
          Alcotest.test_case "prefer io" `Quick test_prefer_io;
        ] );
      ( "modules",
        [
          Alcotest.test_case "valid everywhere" `Quick
            test_bind_modules_valid_everywhere;
          Alcotest.test_case "shares" `Quick test_bind_modules_shares;
        ] );
      ( "validate",
        [
          Alcotest.test_case "default ok" `Quick test_default_validates;
          Alcotest.test_case "allocate ok" `Quick test_allocate_validates;
          Alcotest.test_case "rejects" `Quick test_validate_rejects;
          Alcotest.test_case "rejects bad class" `Quick test_validate_rejects_bad_class;
          Alcotest.test_case "rejects same-step" `Quick
            test_validate_rejects_same_step_sharing;
          QCheck_alcotest.to_alcotest prop_validate_matches_oracle;
        ] );
    ]
