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
  depth : int;
}

(* The total three-valued resimulations spent on one fault across all
   unrolling depths. *)
let implication_budget = 1500

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

(* Everything one ATPG run's searches share: the compiled circuit's
   tables (read-only, from [Sim.compile]) and the mutable scratch every
   fault reuses. *)
type workspace = {
  sim : Sim.t;
  c : Netlist.t;
  n : int;                       (* nets per frame *)
  ops : Sim.ops;
  is_pi : Bytes.t;               (* net -> '\001' iff a primary input *)
  po_mult : int array;           (* net -> times it is listed as a PO *)
  driver : int array;            (* net -> levelized driver gate, or -1 *)
  dff_of_q : int array;          (* net -> dff id whose Q it is, or -1 *)
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
     the frame being processed, seeding the next frame's Q loads; empty
     between sweeps *)
  words : int;                   (* gate words per frame: length of [pend] *)
  mutable cap : int;             (* frames the planes below can hold *)
  mutable gv : int array;        (* cap * n: good values *)
  mutable fv : int array;        (* cap * n: faulty values *)
  mutable asg : int array;
  (* cap * n: the PI assignment as 0/1/x — the one record of which
     (frame, PI) pairs are decided *)
  mutable gx : int array;
  (* cap * n: the good plane with no input assigned, the same for every
     fault and depth; each context's first sweep starts from it *)
  mutable dfr : int array;
  (* cap * words: the D-frontier, one gate bitmask per frame laid out
     like [pend]; the sweeps keep it, [dfrontier] reads it *)
}

let workspace sim =
  let c = Sim.circuit sim in
  let n = c.Netlist.n_nets in
  let is_pi = Bytes.make n '\000' in
  Array.iter (fun net -> Bytes.set is_pi net '\001') (Sim.pi_nets sim);
  let fan_idx, fan_gates = Sim.fanout_gates sim in
  let dfan_idx, dfan_dffs = Sim.fanout_dffs sim in
  let po_mult = Array.make n 0 in
  Array.iter (fun net -> po_mult.(net) <- po_mult.(net) + 1) (Sim.po_nets sim);
  let n_gates = Array.length c.Netlist.gates in
  let n_dffs = Array.length c.Netlist.dffs in
  let words = (n_gates + 31) / 32 in
  {
    sim;
    c;
    n;
    ops = Sim.ops sim;
    is_pi;
    po_mult;
    driver = Sim.driver_index sim;
    dff_of_q = Sim.dff_of_q sim;
    fan_idx;
    fan_gates;
    dfan_idx;
    dfan_dffs;
    pend = Array.make words 0;
    dffp_a = Array.make ((n_dffs + 31) / 32) 0;
    dffp_b = Array.make ((n_dffs + 31) / 32) 0;
    words;
    cap = 0;
    gv = [||];
    fv = [||];
    asg = [||];
    gx = [||];
    dfr = [||];
  }

(* Frame [f] of the unrolling with no input assigned, written into [gv]
   (X throughout frame [f], frame [f - 1] already done): constants, X
   primary inputs, flip-flop Qs from the previous frame's D nets (X in
   frame 0), then one sweep of the whole circuit. *)
let unassigned_frame (ws : workspace) gv f =
  let { Sim.n_gates; kind; in0; in1; in2; out } = ws.ops in
  let base = f * ws.n in
  gv.(base + ws.c.Netlist.const0) <- 0;
  gv.(base + ws.c.Netlist.const1) <- 1;
  Array.iter
    (fun (d : Netlist.dff) ->
      gv.(base + d.Netlist.q_output) <-
        (if f = 0 then x else gv.((f - 1) * ws.n + d.Netlist.d_input)))
    ws.c.Netlist.dffs;
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
  done

(* Grows the planes to [frames] frames, extending [gx] by the new
   frames. *)
let grow (ws : workspace) frames =
  let len = frames * ws.n in
  let gx = Array.make len x in
  Array.blit ws.gx 0 gx 0 (ws.cap * ws.n);
  for f = ws.cap to frames - 1 do
    unassigned_frame ws gx f
  done;
  ws.gx <- gx;
  ws.gv <- Array.make len x;
  ws.fv <- Array.make len x;
  ws.asg <- Array.make len x;
  ws.dfr <- Array.make (frames * ws.words) 0;
  ws.cap <- frames

(* The search state of one fault at one unrolling depth. The planes are
   the workspace's, of which only the first [frames * n] entries (and
   [frames * words] of [dfr]) are this context's. *)
type ctx = {
  ws : workspace;
  n : int;
  frames : int;
  gv : int array;
  fv : int array;
  asg : int array;
  dfr : int array;
  site : int;
  sv : int;                      (* stuck value, 0 or 1 *)
  guard : int;                   (* backtrace step bound *)
  mutable implications : int;
  mutable backtracks : int;
  (* the faulty value can differ from the good one only inside the
     site's sequential output cone, so [fv] is swept over the cone's
     gates only (outside it holds the good values); only a cone gate
     can read a D, so only cone gates enter the D-frontier *)
  cone_gates : int array;
  cone_pos : int array;
  cone_bits : Bytes.t;
  cone_dffs : int array;         (* ids of the cone's flip-flops *)
  wlo : int;
  whi : int;
  (* the [dfr] words of a frame that a cone gate falls in *)
  mutable det : int;
  (* (frame, PO list entry) pairs carrying a D or D-bar *)
  mutable act : int;
  (* frames whose good site value is the opposite of the stuck value:
     the faulty site value is the stuck value in every frame, so these
     are the frames that activate the fault *)
  mutable pending : int list;
  (* plane indexes ([frame * n + net]) of the PI assignments touched
     since the last sweep; the event-driven resweep seeds exactly
     these *)
  mutable swept : bool;          (* the first sweep has run *)
}

(* A context at depth [frames]: grows the planes when this is the
   deepest depth the workspace has seen, and resets the [frames * n]
   prefix of [asg] to X (nothing reads past the prefix). [gv], [fv] and
   [dfr] need no reset: the context's first sweep writes every net of
   the prefix that anything reads (every read net has a driver) and
   clears the prefix of [dfr]. *)
let make_ctx (ws : workspace) fault cone frames =
  let n = ws.n in
  let len = frames * n in
  if ws.cap < frames then grow ws frames
  else Array.fill ws.asg 0 len x;
  let cone_gates = Sim.cone_gates cone in
  let last = Array.length cone_gates - 1 in
  {
    ws;
    n;
    frames;
    gv = ws.gv;
    fv = ws.fv;
    asg = ws.asg;
    dfr = ws.dfr;
    site = fault.Fault.f_net;
    sv = (match fault.Fault.f_stuck with Fault.Stuck_at_0 -> 0 | Fault.Stuck_at_1 -> 1);
    guard = frames * (ws.ops.Sim.n_gates + n) + 16;
    implications = 0;
    backtracks = 0;
    cone_gates;
    cone_pos = Sim.cone_pos cone;
    cone_bits = Sim.cone_bits cone;
    cone_dffs = Sim.cone_dffs cone;
    wlo = (if last < 0 then 0 else cone_gates.(0) lsr 5);
    whi = (if last < 0 then -1 else cone_gates.(last) lsr 5);
    det = 0;
    act = 0;
    pending = [];
    swept = false;
  }

let bit_set b i =
  Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* a two-input gate of kind [k] (0-5) on three-valued inputs *)
let[@inline] t_bin k a b =
  match k with
  | 0 -> t_and a b
  | 1 -> t_or a b
  | 2 -> t_not (t_and a b)
  | 3 -> t_not (t_or a b)
  | 4 -> t_xor a b
  | _ -> t_not (t_xor a b)

(* D or D-bar: both planes defined and different; on 0/1/x=2 values
   that is exactly a sum of 1 *)
let carries_d gv fv i = Array.unsafe_get gv i + Array.unsafe_get fv i = 1

(* The D-frontier rule of one gate from the values an evaluation read:
   its output X in either plane and a D on some input. Sets or clears
   bit [gi land 31] of word [w] of [dfr]. *)
let[@inline] set_frontier dfr w gi ~d_in go fo =
  let bit = 1 lsl (gi land 31) in
  let m = Array.unsafe_get dfr w in
  Array.unsafe_set dfr w
    (if d_in && (go lor fo) land 2 <> 0 then m lor bit else m land lnot bit)

(* The first sweep of a context: no input is assigned yet, so the good
   plane is the workspace's unassigned unrolling, copied wholesale. The
   faulty plane starts as the same copy, so every net outside the cone
   holds its provably-equal good value, then the cone is overwritten
   frame by frame: cone DFF Qs read the previous frame's faulty plane
   (a non-cone DFF's D net is outside the cone, so its copied Q is
   already right), the site is forced and the cone gates are swept,
   non-cone inputs reading the copied good values. Each cone gate's
   frontier bit is set from the values its evaluation read (its inputs
   are final: the order is levelized), and the detection and
   activation counts are taken frame by frame. *)
let first_sweep ctx =
  let ws = ctx.ws in
  let { Sim.kind; in0; in1; in2; out; _ } = ws.ops in
  let gv = ctx.gv and fv = ctx.fv and dfr = ctx.dfr in
  let n = ctx.n and words = ws.words in
  let site = ctx.site and sv = ctx.sv in
  let dffs = ws.c.Netlist.dffs in
  let len = ctx.frames * n in
  (* a typed loop, not [Array.blit]: the planes live in the major heap,
     where a blit pays a write barrier per element *)
  let gx = ws.gx in
  for i = 0 to len - 1 do
    let v = Array.unsafe_get gx i in
    Array.unsafe_set gv i v;
    Array.unsafe_set fv i v
  done;
  Array.fill dfr 0 (ctx.frames * words) 0;
  ctx.det <- 0;
  ctx.act <- 0;
  for f = 0 to ctx.frames - 1 do
    let base = f * n and fw = f * words in
    Array.iter
      (fun di ->
        let d = dffs.(di) in
        fv.(base + d.Netlist.q_output) <-
          (if f = 0 then x else fv.(((f - 1) * n) + d.Netlist.d_input)))
      ctx.cone_dffs;
    fv.(base + site) <- sv;
    if gv.(base + site) = 1 - sv then ctx.act <- ctx.act + 1;
    let cg = ctx.cone_gates in
    for k = 0 to Array.length cg - 1 do
      let gi = Array.unsafe_get cg k in
      let o = Array.unsafe_get out gi in
      let i0 = base + Array.unsafe_get in0 gi in
      let ga = Array.unsafe_get gv i0 and fa = Array.unsafe_get fv i0 in
      let kd = Array.unsafe_get kind gi in
      let fvalue = ref 0 and d_in = ref (ga + fa = 1) in
      if kd < 6 then begin
        let i1 = base + Array.unsafe_get in1 gi in
        let fb = Array.unsafe_get fv i1 in
        if Array.unsafe_get gv i1 + fb = 1 then d_in := true;
        fvalue := t_bin kd fa fb
      end
      else if kd = 6 then fvalue := t_not fa
      else if kd = 7 then fvalue := fa
      else begin
        let i1 = base + Array.unsafe_get in1 gi
        and i2 = base + Array.unsafe_get in2 gi in
        let fb = Array.unsafe_get fv i1 and fc = Array.unsafe_get fv i2 in
        if Array.unsafe_get gv i1 + fb = 1 || Array.unsafe_get gv i2 + fc = 1
        then d_in := true;
        fvalue := t_mux fa fb fc
      end;
      let fvalue = if o = site then sv else !fvalue in
      Array.unsafe_set fv (base + o) fvalue;
      set_frontier dfr (fw + (gi lsr 5)) gi ~d_in:!d_in
        (Array.unsafe_get gv (base + o)) fvalue
    done;
    Array.iter
      (fun p -> if carries_d gv fv (base + p) then ctx.det <- ctx.det + 1)
      ctx.cone_pos
  done

(* de Bruijn index of the lowest set bit of a non-zero 32-bit word *)
let db32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 m = db32.((((m land (-m)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* index of the highest set bit of a non-zero 32-bit word *)
let msb32 m =
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  ctz32 ((m lsr 1) + 1)

(* A net of the frame being swept changed: schedule its reader gates
   (always later in the levelized order) and mark the flip-flops it
   feeds in [nxt], the next frame's Q loads. *)
let touch ws nxt net =
  let { fan_idx; fan_gates; dfan_idx; dfan_dffs; pend; _ } = ws in
  for i = fan_idx.(net) to fan_idx.(net + 1) - 1 do
    let gi = Array.unsafe_get fan_gates i in
    let w = gi lsr 5 in
    Array.unsafe_set pend w (Array.unsafe_get pend w lor (1 lsl (gi land 31)))
  done;
  for i = dfan_idx.(net) to dfan_idx.(net + 1) - 1 do
    let di = Array.unsafe_get dfan_dffs i in
    let w = di lsr 5 in
    Array.unsafe_set nxt w (Array.unsafe_get nxt w lor (1 lsl (di land 31)))
  done

(* One frame's entry of [net] goes from good/faulty [og]/[off] to
   [g]/[fl]: keep the detection count (a PO entry's D comes or goes)
   and the activation count (the site's good value comes to or leaves
   [1 - sv]). *)
let[@inline] account ctx net og off g fl =
  let m = Array.unsafe_get ctx.ws.po_mult net in
  if m > 0 then
    ctx.det <-
      ctx.det + (m * (Bool.to_int (g + fl = 1) - Bool.to_int (og + off = 1)));
  if net = ctx.site then begin
    let on = 1 - ctx.sv in
    ctx.act <- ctx.act + Bool.to_int (g = on) - Bool.to_int (og = on)
  end

let rec first_pending_frame n acc = function
  | [] -> acc
  | i :: rest -> first_pending_frame n (min acc (i / n)) rest

(* Loads the pending PI changes that fall in the frame at [base]. *)
let rec seed_pending ctx nxt base = function
  | [] -> ()
  | i :: rest ->
    if i >= base && i < base + ctx.n then begin
      let v = ctx.asg.(i) in
      let og = ctx.gv.(i) in
      if og <> v then begin
        let off = ctx.fv.(i) in
        let pn = i - base in
        ctx.gv.(i) <- v;
        if pn <> ctx.site then ctx.fv.(i) <- v;
        account ctx pn og off v ctx.fv.(i);
        touch ctx.ws nxt pn
      end
    end;
    seed_pending ctx nxt base rest

(* Event-driven resweep: the pending source changes are seeded into
   their frames and propagated gate-by-gate through the fanout index —
   a gate is re-evaluated only when one of its input nets actually
   changed in either plane, and frame boundaries are crossed only
   through flip-flops whose D net changed. Values are a pure function
   of the assignment, so the touched entries end up exactly as a full
   resweep would leave them and the untouched ones are already right.
   A gate's frontier bit depends only on its inputs and output, and any
   change to them schedules it, so the bit of every re-evaluated cone
   gate is recomputed, whether or not its output moved; the counts
   follow every write to a PO or the site. *)
let sweep_events ctx =
  let ws = ctx.ws in
  let { Sim.kind; in0; in1; in2; out; _ } = ws.ops in
  let gv = ctx.gv and fv = ctx.fv and dfr = ctx.dfr in
  let n = ctx.n and words = ws.words in
  let dffs = ws.c.Netlist.dffs in
  let site = ctx.site and sv = ctx.sv in
  let sbits = ctx.cone_bits in
  let pend = ws.pend in
  let cur = ref ws.dffp_a and nxt = ref ws.dffp_b in
  let fa = first_pending_frame n ctx.frames ctx.pending in
  for f = fa to ctx.frames - 1 do
    let base = f * n and fw = f * words in
    seed_pending ctx !nxt base ctx.pending;
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
          let og = gv.(base + q) and off = fv.(base + q) in
          if og <> gq || off <> fq then begin
            account ctx q og off gq fq;
            gv.(base + q) <- gq;
            fv.(base + q) <- fq;
            touch ws !nxt q
          end
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
        let i0 = base + Array.unsafe_get in0 gi in
        let ga = Array.unsafe_get gv i0 in
        if bit_set sbits o then begin
          (* a cone gate (or the site's driver): both planes, and the
             frontier rule from the same reads *)
          let fa' = Array.unsafe_get fv i0 in
          let k = Array.unsafe_get kind gi in
          let gvalue = ref 0 and fvalue = ref 0 and d_in = ref (ga + fa' = 1) in
          if k < 6 then begin
            let i1 = base + Array.unsafe_get in1 gi in
            let gb = Array.unsafe_get gv i1 and fb = Array.unsafe_get fv i1 in
            if gb + fb = 1 then d_in := true;
            gvalue := t_bin k ga gb;
            fvalue := t_bin k fa' fb
          end
          else if k = 6 then begin
            gvalue := t_not ga;
            fvalue := t_not fa'
          end
          else if k = 7 then begin
            gvalue := ga;
            fvalue := fa'
          end
          else begin
            let i1 = base + Array.unsafe_get in1 gi
            and i2 = base + Array.unsafe_get in2 gi in
            let gb = Array.unsafe_get gv i1 and fb = Array.unsafe_get fv i1 in
            let gc = Array.unsafe_get gv i2 and fc = Array.unsafe_get fv i2 in
            if gb + fb = 1 || gc + fc = 1 then d_in := true;
            gvalue := t_mux ga gb gc;
            fvalue := t_mux fa' fb fc
          end;
          let gvalue = !gvalue and fvalue = if o = site then sv else !fvalue in
          let j = base + o in
          let og = Array.unsafe_get gv j and off = Array.unsafe_get fv j in
          if og <> gvalue || off <> fvalue then begin
            account ctx o og off gvalue fvalue;
            Array.unsafe_set gv j gvalue;
            Array.unsafe_set fv j fvalue;
            touch ws !nxt o
          end;
          set_frontier dfr (fw + w) gi ~d_in:!d_in gvalue fvalue
        end
        else begin
          (* outside the cone the faulty plane is the good one *)
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
          let j = base + o in
          if Array.unsafe_get gv j <> gvalue then begin
            Array.unsafe_set gv j gvalue;
            Array.unsafe_set fv j gvalue;
            touch ws !nxt o
          end
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
  Array.fill !nxt 0 (Array.length !nxt) 0

let sweep ctx =
  (if not ctx.swept then begin
     ctx.swept <- true;
     first_sweep ctx
   end
   else sweep_events ctx);
  ctx.pending <- []

let detected ctx = ctx.det > 0

(* A decision — primary input [net] of frame [f] set to [v] — is encoded
   as [((f * n + net) lsl 1) lor v], -1 meaning none; an objective inside
   one frame as [(net lsl 1) lor v]. *)

(* Walks an objective back to an unassigned primary input, the decision
   it returns; -1 when it dead-ends (frame-0 state or fully determined
   cone). *)
let rec backtrace ctx f net v guard =
  if guard <= 0 then -1
  else begin
    let ws = ctx.ws in
    let base = f * ctx.n in
    if Bytes.unsafe_get ws.is_pi net <> '\000' then
      if Array.unsafe_get ctx.asg (base + net) <> x then -1
      else ((base + net) lsl 1) lor v
    else begin
      let d = Array.unsafe_get ws.dff_of_q net in
      if d >= 0 then
        if f = 0 then -1
        else
          backtrace ctx (f - 1) ws.c.Netlist.dffs.(d).Netlist.d_input v
            (guard - 1)
      else begin
        let gi = Array.unsafe_get ws.driver net in
        if gi < 0 then -1 (* constant *)
        else begin
          let { Sim.kind; in0; in1; in2; _ } = ws.ops in
          let gv = ctx.gv in
          let a = in0.(gi) and b = in1.(gi) in
          match kind.(gi) with
          | 6 (* not *) -> backtrace ctx f a (t_not v) (guard - 1)
          | 7 (* buf *) -> backtrace ctx f a v (guard - 1)
          | (0 | 1 | 2 | 3) as k (* and/or/nand/nor *) ->
            let v' = if k >= 2 then t_not v else v in
            if gv.(base + a) = x then backtrace ctx f a v' (guard - 1)
            else if gv.(base + b) = x then backtrace ctx f b v' (guard - 1)
            else -1
          | (4 | 5) as k (* xor/xnor *) ->
            let v' = if k = 5 then t_not v else v in
            let ga = gv.(base + a) and gb = gv.(base + b) in
            if ga = x && gb <> x then backtrace ctx f a (t_xor v' gb) (guard - 1)
            else if gb = x && ga <> x then
              backtrace ctx f b (t_xor v' ga) (guard - 1)
            else if ga = x then backtrace ctx f a 0 (guard - 1)
            else -1
          | _ (* mux2: a=select, b/c=data *) -> begin
            let c = in2.(gi) in
            match gv.(base + a) with
            | 0 -> backtrace ctx f b v (guard - 1)
            | 1 -> backtrace ctx f c v (guard - 1)
            | _ ->
              (* select the branch that can still justify [v]: a branch
                 already carrying [v] only needs the select set; among
                 undefined branches prefer the second data input — in
                 register hold-muxes that is the load path, while the
                 first (hold) path dead-ends in the unknown initial
                 state *)
              let gb = gv.(base + b) and gc = gv.(base + c) in
              if gb = v then backtrace ctx f a 0 (guard - 1)
              else if gc = v then backtrace ctx f a 1 (guard - 1)
              else if gc = x then backtrace ctx f a 1 (guard - 1)
              else if gb = x then backtrace ctx f a 0 (guard - 1)
              else -1
          end
        end
      end
    end
  end

let backtrace ctx f net v = backtrace ctx f net v ctx.guard

let extract_test ctx stack =
  let frames = Array.make ctx.frames [] in
  List.iter (fun (f, net, v, _) -> frames.(f) <- (net, v) :: frames.(f)) stack;
  { t_frames = Array.map (List.sort compare) frames }

let first_x_of2 gv a b =
  if Array.unsafe_get gv a = x then a
  else if Array.unsafe_get gv b = x then b
  else -1

(* The objective "plane entry [i] of the frame at [base] to [v]", or -1
   when [i] is -1. *)
let objective base i v = if i < 0 then -1 else ((i - base) lsl 1) lor v

(* The objective of D-frontier gate [gi] of the frame at [base] (a D on
   an input, X on its output): its non-controlling value on its first
   X input (mux: the select routing the D), or -1. [a], [b], [c] are its
   input entries in the planes, [-1] when the arity leaves them
   unused. *)
let dfrontier_objective kind gi gv fv base a b c =
  match Array.unsafe_get kind gi with
  | 0 | 2 (* and/nand *) -> objective base (first_x_of2 gv a b) 1
  | 1 | 3 (* or/nor *) -> objective base (first_x_of2 gv a b) 0
  | 4 | 5 (* xor/xnor *) -> objective base (first_x_of2 gv a b) 0
  | 6 | 7 (* not/buf *) -> -1
  | _ (* mux2: a=select, b/c=data *) ->
    let s = Array.unsafe_get gv a in
    if s = x then begin
      if carries_d gv fv b then objective base a 0
      else if carries_d gv fv c then objective base a 1
      else objective base a 0
    end
    else if s = 0 && Array.unsafe_get gv b = x then objective base b 0
    else if s = 1 && Array.unsafe_get gv c = x then objective base c 0
    else -1

(* D-frontier walk fused with the backtrace: the frontier bits are
   walked latest frame first, highest gate first — the order a
   whole-circuit objective list would be consumed, since the levelized
   gate index is the evaluation order — and the walk stops at the first
   gate whose objective backtraces to an unassigned PI. *)
let dfrontier ctx =
  let { Sim.kind; in0; in1; in2; _ } = ctx.ws.ops in
  let gv = ctx.gv and fv = ctx.fv and dfr = ctx.dfr in
  let words = ctx.ws.words in
  let found = ref (-1) in
  let f = ref (ctx.frames - 1) in
  while !found < 0 && !f >= 0 do
    let base = !f * ctx.n and fw = !f * words in
    let w = ref ctx.whi in
    while !found < 0 && !w >= ctx.wlo do
      let m = ref (Array.unsafe_get dfr (fw + !w)) in
      while !found < 0 && !m <> 0 do
        let top = msb32 !m in
        m := !m lxor (1 lsl top);
        let gi = (!w lsl 5) lor top in
        let a = base + Array.unsafe_get in0 gi in
        let b = Array.unsafe_get in1 gi and c = Array.unsafe_get in2 gi in
        let b = if b < 0 then -1 else base + b
        and c = if c < 0 then -1 else base + c in
        let obj = dfrontier_objective kind gi gv fv base a b c in
        if obj >= 0 then found := backtrace ctx !f (obj lsr 1) (obj land 1)
      done;
      decr w
    done;
    decr f
  done;
  !found

let activated ctx = ctx.act > 0

(* Not yet activated: drive the site to the opposite of its stuck value,
   earliest frame first among those where its good value is still X. *)
let rec activate ctx f =
  if f >= ctx.frames then -1
  else if ctx.gv.((f * ctx.n) + ctx.site) = x then begin
    let d = backtrace ctx f ctx.site (1 - ctx.sv) in
    if d >= 0 then d else activate ctx (f + 1)
  end
  else activate ctx (f + 1)

(* The steps the search delegates: the sweep and the state it keeps
   above in {!generate}, a caller's in {!Test_hook.generate}. *)
type ctx_steps = {
  sweep_planes : ctx -> unit;
  detect_po : ctx -> bool;
  activated_step : ctx -> bool;
  dfrontier_step : ctx -> int;
}

let cone_steps =
  {
    sweep_planes = sweep;
    detect_po = detected;
    activated_step = activated;
    dfrontier_step = dfrontier;
  }

let decide steps ctx =
  if not (steps.activated_step ctx) then activate ctx 0
  else steps.dfrontier_step ctx

let set_input ctx f net v =
  let i = (f * ctx.n) + net in
  ctx.asg.(i) <- v;
  ctx.pending <- i :: ctx.pending

let search steps ctx ~max_backtracks ~implication_limit =
  let simulate ctx =
    ctx.implications <- ctx.implications + 1;
    steps.sweep_planes ctx
  in
  (* decision stack: (frame, net, value, already flipped); its entries
     are exactly the current assignments *)
  let stack = ref [] in
  simulate ctx;
  let assign f net v = set_input ctx f net (if v then 1 else 0) in
  let rec backtrack () =
    match !stack with
    | [] -> `No_test
    | (f, net, v, flipped) :: rest ->
      stack := rest;
      set_input ctx f net x;
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
    if steps.detect_po ctx then `Detected (extract_test ctx !stack)
    else if ctx.implications > implication_limit then `Abort
    else begin
      let d = decide steps ctx in
      if d < 0 then begin
        match backtrack () with
        | `No_test -> `No_test
        | `Abort -> `Abort
        | `Continue -> loop ()
      end
      else begin
        let i = d lsr 1 in
        let fa = i / ctx.n and pi = i mod ctx.n and bv = d land 1 = 1 in
        assign fa pi bv;
        stack := (fa, pi, bv, false) :: !stack;
        simulate ctx;
        loop ()
      end
    end
  in
  loop ()

let run steps ws ~max_frames ~max_backtracks fault =
  let implications = ref 0 and backtracks = ref 0 in
  let any_abort = ref false in
  let stats depth =
    { implications = !implications; backtracks = !backtracks; depth }
  in
  if max_frames < 1 then (No_test_in_frames, stats 0)
  else begin
    let cone = Sim.cone ws.sim fault.Fault.f_net in
    (* Each unrolling depth gets its own backtrack budget (an exhausted
       search at a shallow depth says nothing about deeper ones, where
       the extra frames make state controllable); the implication budget
       is shared across depths so one hard fault cannot dominate the
       run. *)
    let rec try_frames k =
      if k > max_frames then
        ((if !any_abort then Aborted else No_test_in_frames), stats max_frames)
      else begin
        let ctx = make_ctx ws fault cone k in
        let outcome =
          search steps ctx ~max_backtracks
            ~implication_limit:(max 1 (implication_budget - !implications))
        in
        implications := !implications + ctx.implications;
        backtracks := !backtracks + ctx.backtracks;
        match outcome with
        | `Detected test -> (Detected test, stats k)
        | `Abort ->
          any_abort := true;
          try_frames (k + 1)
        | `No_test -> try_frames (k + 1)
      end
    in
    try_frames 1
  end

let generate ws ~max_frames ~max_backtracks fault =
  run cone_steps ws ~max_frames ~max_backtracks fault

module Test_hook = struct
  type view = {
    frames : int;
    n : int;
    site : int;
    sv : int;
    gv : int array;
    fv : int array;
    asg : int array;
  }

  type steps = {
    sweep : view -> unit;
    detect : view -> bool;
    activated : view -> bool;
    dfrontier : view -> backtrace:(int -> int -> int -> int) -> int;
  }

  type state = {
    planes : view;
    frontier : int -> int -> bool;
    detections : int;
    activations : int;
  }

  let view (ctx : ctx) =
    {
      frames = ctx.frames;
      n = ctx.n;
      site = ctx.site;
      sv = ctx.sv;
      gv = ctx.gv;
      fv = ctx.fv;
      asg = ctx.asg;
    }

  let generate (s : steps) ws ~max_frames ~max_backtracks fault =
    run
      {
        sweep_planes =
          (fun ctx ->
            s.sweep (view ctx);
            ctx.pending <- []);
        detect_po = (fun ctx -> s.detect (view ctx));
        activated_step = (fun ctx -> s.activated (view ctx));
        dfrontier_step =
          (fun ctx -> s.dfrontier (view ctx) ~backtrace:(backtrace ctx));
      }
      ws ~max_frames ~max_backtracks fault

  let state (ctx : ctx) =
    let dfr = ctx.dfr and words = ctx.ws.words in
    {
      planes = view ctx;
      frontier =
        (fun f gi ->
          dfr.((f * words) + (gi lsr 5)) land (1 lsl (gi land 31)) <> 0);
      detections = ctx.det;
      activations = ctx.act;
    }

  let observe check ws ~max_frames ~max_backtracks fault =
    run
      {
        cone_steps with
        sweep_planes =
          (fun ctx ->
            sweep ctx;
            check (state ctx));
      }
      ws ~max_frames ~max_backtracks fault
end
