module Netlist = Hlts_netlist.Netlist
module Sim = Hlts_sim.Sim
module Fault = Hlts_fault.Fault

type test = { t_frames : (int * bool) list array }

type verdict =
  | Detected of test
  | No_test_in_frames
  | Aborted

type stats = {
  implications : int;
  backtracks : int;
}

type engine = [ `Cone | `Full ]

(* three-valued logic on 0 / 1 / 2=X *)
let x = 2
let t_not a = if a = x then x else 1 - a
let t_and a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else x
let t_or a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else x
let t_xor a b = if a = x || b = x then x else a lxor b

let t_mux s a b =
  if s = 0 then a
  else if s = 1 then b
  else if a = b && a <> x then a
  else x

(* Fault-independent lookup tables, built once per [generate] call and
   shared across its unrolling depths. *)
type tables = {
  pi_nets : (int, unit) Hashtbl.t;
  driver : (int, Netlist.gate) Hashtbl.t;   (* net -> driving gate *)
  q_dff : (int, Netlist.dff) Hashtbl.t;     (* q net -> dff *)
}

let make_tables (c : Netlist.t) =
  let pi_nets = Hashtbl.create 64 in
  List.iter
    (fun (_, bus) -> List.iter (fun net -> Hashtbl.replace pi_nets net ()) bus)
    c.Netlist.pis;
  let driver = Hashtbl.create 256 in
  Array.iter (fun g -> Hashtbl.replace driver g.Netlist.output g) c.Netlist.gates;
  let q_dff = Hashtbl.create 64 in
  Array.iter (fun f -> Hashtbl.replace q_dff f.Netlist.q_output f) c.Netlist.dffs;
  { pi_nets; driver; q_dff }

type ctx = {
  c : Netlist.t;
  order : Netlist.gate array;
  n : int;                       (* nets per frame *)
  pi_nets : (int, unit) Hashtbl.t;
  driver : (int, Netlist.gate) Hashtbl.t;   (* net -> driving gate *)
  q_dff : (int, Netlist.dff) Hashtbl.t;     (* q net -> dff *)
  po_nets : int list;
  site : int;
  sv : int;                      (* stuck value, 0 or 1 *)
  frames : int;
  gv : int array;                (* frames * n *)
  fv : int array;
  assigned : (int * int, bool) Hashtbl.t;   (* (frame, pi net) -> value *)
  mutable implications : int;
  mutable backtracks : int;
  (* cone engine (bit-identical to the full engine, property-tested):
     the faulty value can differ from the good one only inside the
     site's sequential output cone, so [fv] is swept over the cone's
     gates only (reads outside fall back to [gv]), and the D-frontier
     and detection scans are restricted to cone gates / cone POs. *)
  use_cone : bool;
  sim : Sim.t;
  ops : Sim.ops;
  pi_arr : int array;
  cone_gates : int array;
  cone_pos : int array;
  cone_bits : Bytes.t;
  cone_gate_mask : Bytes.t;
  (* gate-index bitset of [cone_gates], so the event-driven sweep can
     test site-cone membership per gate *)
  mutable pending : (int * int) list;
  (* (frame, PI net) assignments touched since the last sweep; the
     event-driven resweep seeds exactly these *)
  fan_idx : int array;
  fan_gates : int array;
  dfan_idx : int array;
  dfan_dffs : int array;
  pend : int array;
  (* per-gate schedule bitmask (32 gates per word) for the event-driven
     sweep; drained every frame *)
  dffp_a : int array;
  dffp_b : int array;
  (* per-dff double-buffered bitmasks: flip-flops whose D net changed in
     the frame being processed, seeding the next frame's Q loads *)
  mutable swept : bool;
  asg : int array;
  (* mirror of [assigned] as frames*n words of 0/1/x, so the cone
     engine's source loading is an array read instead of a hashtable
     probe per PI per frame *)
  mutable dirty : int;
  (* lowest frame whose sources may have changed since the last cone
     sweep; frames below it still hold exactly what a full recompute
     would produce (values are a pure function of [assigned], and a
     frame depends only on its own assignments and the previous
     frame), so the sweep restarts there *)
}

let make_ctx ~engine (tables : tables) sim fault frames =
  let c = Sim.circuit sim in
  let use_cone = engine = `Cone in
  let cone = Sim.cone sim fault.Fault.f_net in
  let cone_gate_mask =
    let n_gates = Array.length c.Netlist.gates in
    let b = Bytes.make ((n_gates / 8) + 1) '\000' in
    Array.iter
      (fun gi ->
        Bytes.set b (gi lsr 3)
          (Char.chr (Char.code (Bytes.get b (gi lsr 3)) lor (1 lsl (gi land 7)))))
      (Sim.cone_gates cone);
    b
  in
  {
    c;
    order = Sim.levelized sim;
    n = c.Netlist.n_nets;
    pi_nets = tables.pi_nets;
    driver = tables.driver;
    q_dff = tables.q_dff;
    po_nets = List.concat_map (fun (_, bus) -> bus) c.Netlist.pos;
    site = fault.Fault.f_net;
    sv = (match fault.Fault.f_stuck with Fault.Stuck_at_0 -> 0 | Fault.Stuck_at_1 -> 1);
    frames;
    gv = Array.make (frames * c.Netlist.n_nets) x;
    fv = Array.make (frames * c.Netlist.n_nets) x;
    assigned = Hashtbl.create 64;
    implications = 0;
    backtracks = 0;
    use_cone;
    sim;
    ops = Sim.ops sim;
    pi_arr = Sim.pi_nets sim;
    cone_gates = Sim.cone_gates cone;
    cone_pos = Sim.cone_pos cone;
    cone_bits = Sim.cone_bits cone;
    cone_gate_mask;
    pending = [];
    fan_idx = fst (Sim.fanout_gates sim);
    fan_gates = snd (Sim.fanout_gates sim);
    dfan_idx = fst (Sim.fanout_dffs sim);
    dfan_dffs = snd (Sim.fanout_dffs sim);
    pend = Array.make ((Array.length c.Netlist.gates + 31) / 32) 0;
    dffp_a = Array.make ((Array.length c.Netlist.dffs + 31) / 32) 0;
    dffp_b = Array.make ((Array.length c.Netlist.dffs + 31) / 32) 0;
    swept = false;
    asg = Array.make (frames * c.Netlist.n_nets) x;
    dirty = 0;
  }

(* --- full engine: the pre-cone oracle, kept verbatim ------------------- *)

let simulate_full ctx =
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    (* sources *)
    ctx.gv.(base + ctx.c.Netlist.const0) <- 0;
    ctx.fv.(base + ctx.c.Netlist.const0) <- 0;
    ctx.gv.(base + ctx.c.Netlist.const1) <- 1;
    ctx.fv.(base + ctx.c.Netlist.const1) <- 1;
    Hashtbl.iter
      (fun net () ->
        let v =
          match Hashtbl.find_opt ctx.assigned (f, net) with
          | Some true -> 1
          | Some false -> 0
          | None -> x
        in
        ctx.gv.(base + net) <- v;
        ctx.fv.(base + net) <- v)
      ctx.pi_nets;
    Array.iter
      (fun (d : Netlist.dff) ->
        if f = 0 then begin
          ctx.gv.(base + d.Netlist.q_output) <- x;
          ctx.fv.(base + d.Netlist.q_output) <- x
        end
        else begin
          let prev = (f - 1) * ctx.n + d.Netlist.d_input in
          ctx.gv.(base + d.Netlist.q_output) <- ctx.gv.(prev);
          ctx.fv.(base + d.Netlist.q_output) <- ctx.fv.(prev)
        end)
      ctx.c.Netlist.dffs;
    (* fault forcing on source nets *)
    if not (Hashtbl.mem ctx.driver ctx.site) then
      ctx.fv.(base + ctx.site) <- ctx.sv;
    (* sweep *)
    let gv = ctx.gv and fv = ctx.fv in
    Array.iter
      (fun (g : Netlist.gate) ->
        let out = base + g.Netlist.output in
        (match g.Netlist.kind, g.Netlist.inputs with
        | Netlist.G_not, [ a ] ->
          gv.(out) <- t_not gv.(base + a);
          fv.(out) <- t_not fv.(base + a)
        | Netlist.G_buf, [ a ] ->
          gv.(out) <- gv.(base + a);
          fv.(out) <- fv.(base + a)
        | Netlist.G_and, [ a; b ] ->
          gv.(out) <- t_and gv.(base + a) gv.(base + b);
          fv.(out) <- t_and fv.(base + a) fv.(base + b)
        | Netlist.G_or, [ a; b ] ->
          gv.(out) <- t_or gv.(base + a) gv.(base + b);
          fv.(out) <- t_or fv.(base + a) fv.(base + b)
        | Netlist.G_nand, [ a; b ] ->
          gv.(out) <- t_not (t_and gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_and fv.(base + a) fv.(base + b))
        | Netlist.G_nor, [ a; b ] ->
          gv.(out) <- t_not (t_or gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_or fv.(base + a) fv.(base + b))
        | Netlist.G_xor, [ a; b ] ->
          gv.(out) <- t_xor gv.(base + a) gv.(base + b);
          fv.(out) <- t_xor fv.(base + a) fv.(base + b)
        | Netlist.G_xnor, [ a; b ] ->
          gv.(out) <- t_not (t_xor gv.(base + a) gv.(base + b));
          fv.(out) <- t_not (t_xor fv.(base + a) fv.(base + b))
        | Netlist.G_mux2, [ s_; a; b ] ->
          gv.(out) <- t_mux gv.(base + s_) gv.(base + a) gv.(base + b);
          fv.(out) <- t_mux fv.(base + s_) fv.(base + a) fv.(base + b)
        | ( Netlist.G_and | Netlist.G_or | Netlist.G_nand | Netlist.G_nor
          | Netlist.G_xor | Netlist.G_xnor | Netlist.G_not | Netlist.G_buf
          | Netlist.G_mux2 ), _ ->
          invalid_arg "Podem.simulate: corrupt gate");
        if g.Netlist.output = ctx.site then fv.(out) <- ctx.sv)
      ctx.order
  done

let detected_full ctx =
  let rec frame f =
    if f >= ctx.frames then false
    else
      let base = f * ctx.n in
      List.exists
        (fun po ->
          let g = ctx.gv.(base + po) and fl = ctx.fv.(base + po) in
          g <> x && fl <> x && g <> fl)
        ctx.po_nets
      || frame (f + 1)
  in
  frame 0

(* --- cone engine ------------------------------------------------------- *)

let bit_set b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let sweep_cone_all ctx =
  let { Sim.n_gates; kind; in0; in1; in2; out } = ctx.ops in
  let gv = ctx.gv and fv = ctx.fv and asg = ctx.asg in
  (* frames below [dirty] already hold exactly what this recompute would
     produce; restart the sweep there (see the [dirty] field) *)
  for f = ctx.dirty to ctx.frames - 1 do
    let base = f * ctx.n in
    (* good sources *)
    gv.(base + ctx.c.Netlist.const0) <- 0;
    gv.(base + ctx.c.Netlist.const1) <- 1;
    Array.iter
      (fun net -> Array.unsafe_set gv (base + net) (Array.unsafe_get asg (base + net)))
      ctx.pi_arr;
    Array.iter
      (fun (d : Netlist.dff) ->
        gv.(base + d.Netlist.q_output) <-
          (if f = 0 then x else gv.((f - 1) * ctx.n + d.Netlist.d_input)))
      ctx.c.Netlist.dffs;
    (* good sweep over the whole circuit *)
    for gi = 0 to n_gates - 1 do
      let k0 = Array.unsafe_get kind gi in
      let a = Array.unsafe_get gv (base + Array.unsafe_get in0 gi) in
      let value =
        match k0 with
        | 0 -> t_and a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
        | 1 -> t_or a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
        | 2 -> t_not (t_and a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
        | 3 -> t_not (t_or a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
        | 4 -> t_xor a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
        | 5 -> t_not (t_xor a (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
        | 6 -> t_not a
        | 7 -> a
        | _ ->
          t_mux a
            (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
            (Array.unsafe_get gv (base + Array.unsafe_get in2 gi))
      in
      Array.unsafe_set gv (base + Array.unsafe_get out gi) value
    done;
    (* faulty plane: seed it with the good values wholesale (a blit, so
       every net outside the cone holds its provably-equal good value),
       then overwrite the cone. Cone DFF Qs read the previous frame's
       faulty plane, which is fully materialized by the same scheme. *)
    Array.blit gv base fv base ctx.n;
    Array.iter
      (fun (d : Netlist.dff) ->
        let q = d.Netlist.q_output in
        fv.(base + q) <-
          (if f = 0 then x else fv.((f - 1) * ctx.n + d.Netlist.d_input)))
      ctx.c.Netlist.dffs;
    fv.(base + ctx.site) <- ctx.sv;
    (* faulty sweep over the cone only; non-cone inputs read the blitted
       good values *)
    let cg = ctx.cone_gates in
    for k = 0 to Array.length cg - 1 do
      let gi = Array.unsafe_get cg k in
      let o = Array.unsafe_get out gi in
      let a = Array.unsafe_get fv (base + Array.unsafe_get in0 gi) in
      let value =
        match Array.unsafe_get kind gi with
        | 0 -> t_and a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
        | 1 -> t_or a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
        | 2 -> t_not (t_and a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
        | 3 -> t_not (t_or a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
        | 4 -> t_xor a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
        | 5 -> t_not (t_xor a (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
        | 6 -> t_not a
        | 7 -> a
        | _ ->
          t_mux a
            (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
            (Array.unsafe_get fv (base + Array.unsafe_get in2 gi))
      in
      Array.unsafe_set fv (base + o) (if o = ctx.site then ctx.sv else value)
    done
  done;
  ctx.dirty <- ctx.frames

(* de Bruijn index of the lowest set bit of a non-zero 32-bit word *)
let db32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 m = db32.((((m land (-m)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Event-driven resweep: the pending source changes are seeded into
   their frames and propagated gate-by-gate through the fanout index —
   a gate is re-evaluated only when one of its input nets actually
   changed in either plane, and frame boundaries are crossed only
   through flip-flops whose D net changed. Values are a pure function
   of the assignment, so the touched entries end up exactly as a full
   resweep would leave them and the untouched ones are already right. *)
let sweep_events ctx =
  let { Sim.kind; in0; in1; in2; out; _ } = ctx.ops in
  let gv = ctx.gv and fv = ctx.fv in
  let n = ctx.n in
  let dffs = ctx.c.Netlist.dffs in
  let site = ctx.site and sv = ctx.sv in
  let gmask = ctx.cone_gate_mask and sbits = ctx.cone_bits in
  let fan_idx = ctx.fan_idx and fan_gates = ctx.fan_gates in
  let dfan_idx = ctx.dfan_idx and dfan_dffs = ctx.dfan_dffs in
  let pend = ctx.pend in
  let cur = ref ctx.dffp_a and nxt = ref ctx.dffp_b in
  (* a net changed: schedule its reader gates (always later in the
     levelized order) and remember the flip-flops it feeds *)
  let touch net =
    for i = fan_idx.(net) to fan_idx.(net + 1) - 1 do
      let gi = Array.unsafe_get fan_gates i in
      let w = gi lsr 5 in
      Array.unsafe_set pend w (Array.unsafe_get pend w lor (1 lsl (gi land 31)))
    done;
    for i = dfan_idx.(net) to dfan_idx.(net + 1) - 1 do
      let di = Array.unsafe_get dfan_dffs i in
      let w = di lsr 5 in
      let nx = !nxt in
      Array.unsafe_set nx w (Array.unsafe_get nx w lor (1 lsl (di land 31)))
    done
  in
  let fa =
    List.fold_left (fun acc (f, _) -> min acc f) ctx.frames ctx.pending
  in
  for f = fa to ctx.frames - 1 do
    let base = f * n in
    (* seed this frame's changed PIs *)
    List.iter
      (fun (fc, pn) ->
        if fc = f then begin
          let v = ctx.asg.(base + pn) in
          if gv.(base + pn) <> v then begin
            gv.(base + pn) <- v;
            if pn <> site then fv.(base + pn) <- v;
            touch pn
          end
        end)
      ctx.pending;
    (* seed flip-flops whose D net changed in the previous frame *)
    if f > fa then begin
      let cw = !cur in
      let prev = (f - 1) * n in
      for w = 0 to Array.length cw - 1 do
        while cw.(w) <> 0 do
          let di = (w lsl 5) lor ctz32 cw.(w) in
          cw.(w) <- cw.(w) land (cw.(w) - 1);
          let d = dffs.(di) in
          let q = d.Netlist.q_output in
          let gq = gv.(prev + d.Netlist.d_input) in
          let fq =
            if q = site then sv
            else if bit_set sbits q then fv.(prev + d.Netlist.d_input)
            else gq
          in
          let changed = gv.(base + q) <> gq || fv.(base + q) <> fq in
          gv.(base + q) <- gq;
          fv.(base + q) <- fq;
          if changed then touch q
        done
      done
    end;
    (* drain scheduled gates in levelized (ascending-index) order; a
       re-evaluated gate only schedules strictly later gates *)
    for w = 0 to Array.length pend - 1 do
      while Array.unsafe_get pend w <> 0 do
        let pw = Array.unsafe_get pend w in
        let gi = (w lsl 5) lor ctz32 pw in
        Array.unsafe_set pend w (pw land (pw - 1));
        let o = Array.unsafe_get out gi in
        let ga = Array.unsafe_get gv (base + Array.unsafe_get in0 gi) in
        let gvalue =
          match Array.unsafe_get kind gi with
          | 0 -> t_and ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
          | 1 -> t_or ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
          | 2 -> t_not (t_and ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
          | 3 -> t_not (t_or ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
          | 4 -> t_xor ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
          | 5 -> t_not (t_xor ga (Array.unsafe_get gv (base + Array.unsafe_get in1 gi)))
          | 6 -> t_not ga
          | 7 -> ga
          | _ ->
            t_mux ga
              (Array.unsafe_get gv (base + Array.unsafe_get in1 gi))
              (Array.unsafe_get gv (base + Array.unsafe_get in2 gi))
        in
        let fvalue =
          if o = site then sv
          else if bit_set gmask gi then begin
            let fa' = Array.unsafe_get fv (base + Array.unsafe_get in0 gi) in
            match Array.unsafe_get kind gi with
            | 0 -> t_and fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
            | 1 -> t_or fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
            | 2 -> t_not (t_and fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
            | 3 -> t_not (t_or fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
            | 4 -> t_xor fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
            | 5 -> t_not (t_xor fa' (Array.unsafe_get fv (base + Array.unsafe_get in1 gi)))
            | 6 -> t_not fa'
            | 7 -> fa'
            | _ ->
              t_mux fa'
                (Array.unsafe_get fv (base + Array.unsafe_get in1 gi))
                (Array.unsafe_get fv (base + Array.unsafe_get in2 gi))
          end
          else gvalue
        in
        let og = Array.unsafe_get gv (base + o)
        and off = Array.unsafe_get fv (base + o) in
        if og <> gvalue || off <> fvalue then begin
          Array.unsafe_set gv (base + o) gvalue;
          Array.unsafe_set fv (base + o) fvalue;
          touch o
        end
      done
    done;
    (* swap the dff buffers for the next frame *)
    let t = !cur in
    cur := !nxt;
    nxt := t
  done;
  (* discard propagation beyond the last frame *)
  Array.fill !cur 0 (Array.length !cur) 0;
  Array.fill !nxt 0 (Array.length !nxt) 0;
  ctx.dirty <- ctx.frames

let simulate_cone ctx =
  (if not ctx.swept then begin
     ctx.swept <- true;
     sweep_cone_all ctx
   end
   else sweep_events ctx);
  ctx.pending <- []

let detected_cone ctx =
  let pos = ctx.cone_pos in
  let rec frame f =
    if f >= ctx.frames then false
    else begin
      let base = f * ctx.n in
      let rec po i =
        if i >= Array.length pos then false
        else
          let g = ctx.gv.(base + pos.(i)) and fl = ctx.fv.(base + pos.(i)) in
          (g <> x && fl <> x && g <> fl) || po (i + 1)
      in
      po 0 || frame (f + 1)
    end
  in
  frame 0

let simulate ctx =
  ctx.implications <- ctx.implications + 1;
  if ctx.use_cone then simulate_cone ctx else simulate_full ctx

let detected ctx = if ctx.use_cone then detected_cone ctx else detected_full ctx

(* Candidate objectives, best first; the caller takes the first one whose
   backtrace reaches an unassigned primary input. *)
let objectives_full ctx =
  (* D-frontier: gates with a D on an input and X on their output.
     Late frames and late levels first (closest to the outputs). *)
  let acc = ref [] in
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    for gi = 0 to Array.length ctx.order - 1 do
      let g = ctx.order.(gi) in
      let out = base + g.Netlist.output in
      let out_x = ctx.gv.(out) = x || ctx.fv.(out) = x in
      if out_x then begin
        let carries_d net =
          let i = base + net in
          ctx.gv.(i) <> x && ctx.fv.(i) <> x && ctx.gv.(i) <> ctx.fv.(i)
        in
        if List.exists carries_d g.Netlist.inputs then begin
          let pick =
            match g.Netlist.kind, g.Netlist.inputs with
            | (Netlist.G_and | Netlist.G_nand), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 1))
            | (Netlist.G_or | Netlist.G_nor), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 0))
            | (Netlist.G_xor | Netlist.G_xnor), inputs ->
              List.find_opt (fun net -> ctx.gv.(base + net) = x) inputs
              |> Option.map (fun net -> (net, 0))
            | (Netlist.G_not | Netlist.G_buf), _ -> None
            | Netlist.G_mux2, [ s_; a; b ] ->
              if ctx.gv.(base + s_) = x then begin
                (* route the data input that carries the D *)
                if carries_d a then Some (s_, 0)
                else if carries_d b then Some (s_, 1)
                else Some (s_, 0)
              end
              else if ctx.gv.(base + s_) = 0 && ctx.gv.(base + a) = x then
                Some (a, 0)
              else if ctx.gv.(base + s_) = 1 && ctx.gv.(base + b) = x then
                Some (b, 0)
              else None
            | Netlist.G_mux2, _ -> None
          in
          match pick with
          | Some (net, v) -> acc := (f, net, v) :: !acc
          | None -> ()
        end
      end
    done
  done;
  (* reversed scan order: latest frame / deepest gate first *)
  !acc

(* The cone restriction is exact: a non-cone gate can never see a D on an
   input (its inputs all lie outside the cone), so scanning the cone's
   gates in the same frame-major ascending-level order yields the same
   objective list as the full scan. *)
let objectives_cone ctx =
  let { Sim.kind; in0; in1; in2; out; _ } = ctx.ops in
  let acc = ref [] in
  for f = 0 to ctx.frames - 1 do
    let base = f * ctx.n in
    let carries_d net =
      let g = ctx.gv.(base + net) and fl = ctx.fv.(base + net) in
      g <> x && fl <> x && g <> fl
    in
    let cg = ctx.cone_gates in
    for k = 0 to Array.length cg - 1 do
      let gi = cg.(k) in
      let o = base + out.(gi) in
      let out_x = ctx.gv.(o) = x || ctx.fv.(o) = x in
      if out_x then begin
        let a = in0.(gi) and b = in1.(gi) and c2 = in2.(gi) in
        let any_d =
          carries_d a || (b >= 0 && carries_d b) || (c2 >= 0 && carries_d c2)
        in
        if any_d then begin
          let first_x_of2 v =
            if ctx.gv.(base + a) = x then Some (a, v)
            else if ctx.gv.(base + b) = x then Some (b, v)
            else None
          in
          let pick =
            match kind.(gi) with
            | 0 | 2 (* and/nand *) -> first_x_of2 1
            | 1 | 3 (* or/nor *) -> first_x_of2 0
            | 4 | 5 (* xor/xnor *) -> first_x_of2 0
            | 6 | 7 (* not/buf *) -> None
            | _ (* mux2: a=select, b/c2=data *) ->
              if ctx.gv.(base + a) = x then begin
                if carries_d b then Some (a, 0)
                else if carries_d c2 then Some (a, 1)
                else Some (a, 0)
              end
              else if ctx.gv.(base + a) = 0 && ctx.gv.(base + b) = x then
                Some (b, 0)
              else if ctx.gv.(base + a) = 1 && ctx.gv.(base + c2) = x then
                Some (c2, 0)
              else None
          in
          match pick with
          | Some (net, v) -> acc := (f, net, v) :: !acc
          | None -> ()
        end
      end
    done
  done;
  !acc

let objectives ctx =
  (* activation: some frame carries D at the fault site *)
  let site_d f =
    let i = f * ctx.n + ctx.site in
    ctx.gv.(i) <> x && ctx.gv.(i) <> ctx.sv && ctx.fv.(i) = ctx.sv
  in
  let activated = ref false in
  for f = 0 to ctx.frames - 1 do
    if site_d f then activated := true
  done;
  if not !activated then
    (* every frame where the good value at the site is still X *)
    List.filter_map
      (fun f ->
        if ctx.gv.((f * ctx.n) + ctx.site) = x then
          Some (f, ctx.site, 1 - ctx.sv)
        else None)
      (List.init ctx.frames Fun.id)
  else if ctx.use_cone then objectives_cone ctx
  else objectives_full ctx

(* Walks an objective back to an unassigned primary input; [None] when it
   dead-ends (frame-0 state or fully determined cone). *)
let backtrace ctx f0 net0 v0 =
  let rec walk f net v guard =
    if guard <= 0 then None
    else begin
      let base = f * ctx.n in
      if Hashtbl.mem ctx.pi_nets net then
        if Hashtbl.mem ctx.assigned (f, net) then None else Some (f, net, v)
      else
        match Hashtbl.find_opt ctx.q_dff net with
        | Some dff ->
          if f = 0 then None else walk (f - 1) dff.Netlist.d_input v (guard - 1)
        | None -> begin
          match Hashtbl.find_opt ctx.driver net with
          | None -> None (* constant *)
          | Some g -> begin
            let xin inputs =
              List.find_opt (fun n -> ctx.gv.(base + n) = x) inputs
            in
            match g.Netlist.kind, g.Netlist.inputs with
            | Netlist.G_not, [ a ] -> walk f a (t_not v) (guard - 1)
            | Netlist.G_buf, [ a ] -> walk f a v (guard - 1)
            | (Netlist.G_and | Netlist.G_nand), inputs -> begin
              let v' = if g.Netlist.kind = Netlist.G_nand then t_not v else v in
              match xin inputs with
              | Some a -> walk f a v' (guard - 1)
              | None -> None
            end
            | (Netlist.G_or | Netlist.G_nor), inputs -> begin
              let v' = if g.Netlist.kind = Netlist.G_nor then t_not v else v in
              match xin inputs with
              | Some a -> walk f a v' (guard - 1)
              | None -> None
            end
            | (Netlist.G_xor | Netlist.G_xnor), [ a; b ] -> begin
              let v' = if g.Netlist.kind = Netlist.G_xnor then t_not v else v in
              let ga = ctx.gv.(base + a) and gb = ctx.gv.(base + b) in
              if ga = x && gb <> x then walk f a (t_xor v' gb) (guard - 1)
              else if gb = x && ga <> x then walk f b (t_xor v' ga) (guard - 1)
              else if ga = x then walk f a 0 (guard - 1)
              else None
            end
            | Netlist.G_mux2, [ s_; a; b ] -> begin
              match ctx.gv.(base + s_) with
              | 0 -> walk f a v (guard - 1)
              | 1 -> walk f b v (guard - 1)
              | _ ->
                (* select the branch that can still justify [v]: a branch
                   already carrying [v] only needs the select set; among
                   undefined branches prefer [b] — in register hold-muxes
                   that is the load path, while the [a] (hold) path dead-
                   ends in the unknown initial state *)
                let ga = ctx.gv.(base + a) and gb = ctx.gv.(base + b) in
                if ga = v then walk f s_ 0 (guard - 1)
                else if gb = v then walk f s_ 1 (guard - 1)
                else if gb = x then walk f s_ 1 (guard - 1)
                else if ga = x then walk f s_ 0 (guard - 1)
                else None
            end
            (* malformed arities cannot occur in validated netlists *)
            | (Netlist.G_not | Netlist.G_buf), _ -> None
            | (Netlist.G_xor | Netlist.G_xnor), _ -> None
            | Netlist.G_mux2, _ -> None
          end
        end
    end
  in
  walk f0 net0 v0 (ctx.frames * (Array.length ctx.order + ctx.n) + 16)

let extract_test ctx =
  let frames = Array.make ctx.frames [] in
  Hashtbl.iter
    (fun (f, net) v -> frames.(f) <- (net, v) :: frames.(f))
    ctx.assigned;
  { t_frames = Array.map (List.sort compare) frames }

(* D-frontier scan fused with the backtrace: candidates are tried in
   exactly the order [first_reachable (objectives ctx)] would — latest
   frame first, deepest cone gate first — but generation stops at the
   first candidate whose backtrace reaches an unassigned PI instead of
   materializing the whole list. *)
let fused_dfrontier ctx =
  let { Sim.kind; in0; in1; in2; _ } = ctx.ops in
  let out = ctx.ops.Sim.out in
  let cg = ctx.cone_gates in
  let rec frame f =
    if f < 0 then None
    else begin
      let base = f * ctx.n in
      let carries_d net =
        let g = ctx.gv.(base + net) and fl = ctx.fv.(base + net) in
        g <> x && fl <> x && g <> fl
      in
      let rec gate k =
        if k < 0 then frame (f - 1)
        else begin
          let gi = cg.(k) in
          let o = base + out.(gi) in
          let pick =
            if ctx.gv.(o) = x || ctx.fv.(o) = x then begin
              let a = in0.(gi) and b = in1.(gi) and c2 = in2.(gi) in
              let any_d =
                carries_d a || (b >= 0 && carries_d b)
                || (c2 >= 0 && carries_d c2)
              in
              if any_d then begin
                let first_x_of2 v =
                  if ctx.gv.(base + a) = x then Some (a, v)
                  else if ctx.gv.(base + b) = x then Some (b, v)
                  else None
                in
                match kind.(gi) with
                | 0 | 2 (* and/nand *) -> first_x_of2 1
                | 1 | 3 (* or/nor *) -> first_x_of2 0
                | 4 | 5 (* xor/xnor *) -> first_x_of2 0
                | 6 | 7 (* not/buf *) -> None
                | _ (* mux2: a=select, b/c2=data *) ->
                  if ctx.gv.(base + a) = x then begin
                    if carries_d b then Some (a, 0)
                    else if carries_d c2 then Some (a, 1)
                    else Some (a, 0)
                  end
                  else if ctx.gv.(base + a) = 0 && ctx.gv.(base + b) = x then
                    Some (b, 0)
                  else if ctx.gv.(base + a) = 1 && ctx.gv.(base + c2) = x then
                    Some (c2, 0)
                  else None
              end
              else None
            end
            else None
          in
          match pick with
          | Some (net, v) -> begin
            match backtrace ctx f net v with
            | Some pi -> Some pi
            | None -> gate (k - 1)
          end
          | None -> gate (k - 1)
        end
      in
      gate (Array.length cg - 1)
    end
  in
  frame (ctx.frames - 1)

let search ctx ~max_backtracks ~max_implications =
  (* decision stack: (frame, net, value, already flipped) *)
  let stack = ref [] in
  simulate ctx;
  let assign f net v =
    Hashtbl.replace ctx.assigned (f, net) v;
    ctx.asg.((f * ctx.n) + net) <- (if v then 1 else 0);
    ctx.pending <- (f, net) :: ctx.pending;
    if f < ctx.dirty then ctx.dirty <- f
  in
  let unassign f net =
    Hashtbl.remove ctx.assigned (f, net);
    ctx.asg.((f * ctx.n) + net) <- x;
    ctx.pending <- (f, net) :: ctx.pending;
    if f < ctx.dirty then ctx.dirty <- f
  in
  let rec backtrack () =
    match !stack with
    | [] -> `No_test
    | (f, net, v, flipped) :: rest ->
      stack := rest;
      unassign f net;
      if flipped then backtrack ()
      else begin
        ctx.backtracks <- ctx.backtracks + 1;
        if ctx.backtracks > max_backtracks then `Abort
        else begin
          let v' = not v in
          assign f net v';
          stack := (f, net, v', true) :: !stack;
          simulate ctx;
          `Continue
        end
      end
  in
  let rec loop () =
    if detected ctx then `Detected (extract_test ctx)
    else if ctx.implications > max_implications then `Abort
    else begin
      let rec first_reachable = function
        | [] -> None
        | (f, net, v) :: rest -> begin
          match backtrace ctx f net v with
          | Some pi -> Some pi
          | None -> first_reachable rest
        end
      in
      let decision =
        let site_d f =
          let i = f * ctx.n + ctx.site in
          ctx.gv.(i) <> x && ctx.gv.(i) <> ctx.sv && ctx.fv.(i) = ctx.sv
        in
        let activated = ref false in
        for f = 0 to ctx.frames - 1 do
          if site_d f then activated := true
        done;
        if ctx.use_cone && !activated then fused_dfrontier ctx
        else first_reachable (objectives ctx)
      in
      match decision with
      | None -> begin
        match backtrack () with
        | `No_test -> `No_test
        | `Abort -> `Abort
        | `Continue -> loop ()
      end
      | Some (fa, pi, v) ->
        let bv = v = 1 in
        assign fa pi bv;
        stack := (fa, pi, bv, false) :: !stack;
        simulate ctx;
        loop ()
    end
  in
  loop ()

let generate ?(max_implications = 1500) ?(engine = `Cone) sim ~max_frames
    ~max_backtracks fault =
  let tables = make_tables (Sim.circuit sim) in
  let implications = ref 0 and backtracks = ref 0 in
  let any_abort = ref false in
  (* Each unrolling depth gets its own backtrack budget (an exhausted
     search at a shallow depth says nothing about deeper ones, where the
     extra frames make state controllable); the implication budget is
     shared across depths so one hard fault cannot dominate the run. *)
  let rec try_frames k =
    if k > max_frames then
      ( (if !any_abort then Aborted else No_test_in_frames),
        { implications = !implications; backtracks = !backtracks } )
    else begin
      let ctx = make_ctx ~engine tables sim fault k in
      let outcome =
        search ctx ~max_backtracks
          ~max_implications:(max 1 (max_implications - !implications))
      in
      implications := !implications + ctx.implications;
      backtracks := !backtracks + ctx.backtracks;
      match outcome with
      | `Detected test ->
        (Detected test, { implications = !implications; backtracks = !backtracks })
      | `Abort ->
        any_abort := true;
        try_frames (k + 1)
      | `No_test -> try_frames (k + 1)
    end
  in
  try_frames 1
