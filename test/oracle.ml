(* The per-fault fault-simulation reference the property tests hold the
   product grader ({!Hlts_sim.Ppsfp}) against. Built from the public
   [Sim] API alone, so it shares no code path with what it checks
   beyond gate evaluation itself. *)

module Sim = Hlts_sim.Sim
module Fault = Hlts_fault.Fault

(* No cone, no packing, no skipping: [m] is zeroed, then swept over the
   whole gate array every cycle of the recorded trajectory, comparing
   every PO against the good run. Returns the first (cycle, lane-diff
   word) with the diff restricted to [mask], or [None]; increments
   [evals] once per examined cycle. *)
let replay_full ?(mask = -1L) t (m : Sim.machine) (fault : Fault.t) tr ~evals =
  Array.fill m.Sim.values 0 (Array.length m.Sim.values) 0L;
  Array.fill m.Sim.state 0 (Array.length m.Sim.state) 0L;
  let cycles = Sim.trajectory_cycles tr in
  let stimuli = Sim.trajectory_stimuli tr in
  let pos = Sim.po_nets t in
  let rec cycle i =
    if i >= cycles then None
    else begin
      List.iter (fun (net, w) -> m.Sim.values.(net) <- w) stimuli.(i);
      Sim.eval ~fault t m;
      incr evals;
      let gv = Sim.trajectory_values tr i in
      let diff = ref 0L in
      for p = 0 to Array.length pos - 1 do
        let po = pos.(p) in
        diff := Int64.logor !diff (Int64.logxor m.Sim.values.(po) gv.(po))
      done;
      let d = Int64.logand mask !diff in
      if d <> 0L then Some (i, d)
      else begin
        Sim.step t m;
        cycle (i + 1)
      end
    end
  in
  cycle 0
