module Dfg = Hlts_dfg.Dfg
module Constraints = Hlts_sched.Constraints
module Schedule = Hlts_sched.Schedule
module Basic = Hlts_sched.Basic
module Binding = Hlts_alloc.Binding
module Etpn = Hlts_etpn.Etpn

module Datapath = Hlts_etpn.Datapath

(* Derived views of a state are pure functions of (dfg, schedule,
   binding), so each state computes them at most once. A merge attempt
   reads only E, which is the schedule length, and H, the floorplan of
   the schedule-free data-path view; the view also feeds the
   testability analysis. The full ETPN (guards and control net) is built
   only when asked for. The consistency check is memoized too: a merge
   attempt checks it before reading E or H, and the view is never built
   from a state that fails it. H is memoized per bit width (an assoc
   list — callers rarely query more than one or two widths per state,
   but interleaving widths must not thrash the memo). The caches are
   created by [make] and thus invalidated simply by
   [with_constraints]/[with_binding] building a fresh state. During one
   Algorithm-1 iteration every merge attempt re-reads the *pre-merge*
   state's H — with the memo it is computed once per iteration instead
   of once per attempt. *)
type caches = {
  consistent_c : bool Lazy.t;
  datapath_c : Datapath.t Lazy.t;
  analysis_c : Hlts_testability.Testability.t Lazy.t;
  etpn_c : Etpn.t Lazy.t;
  mutable area_c : (int * float) list;  (* bits -> mm2, every width seen *)
}

type t = {
  dfg : Dfg.t;
  cons : Constraints.t;
  schedule : Schedule.t;
  binding : Binding.t;
  caches : caches;
}

let check dfg cons schedule binding =
  Schedule.respects dfg schedule
  && List.for_all
       (fun (a, b) -> Schedule.step schedule a < Schedule.step schedule b)
       (Constraints.extra_arcs cons)
  && Result.is_ok (Binding.validate dfg schedule binding)

let make ?(area = []) ~dfg ~cons ~schedule ~binding () =
  let consistent_c = lazy (check dfg cons schedule binding) in
  let datapath_c =
    lazy
      (if Lazy.force consistent_c then Datapath.build dfg binding
       else invalid_arg "State: inconsistent schedule or binding")
  in
  let analysis_c =
    lazy (Hlts_testability.Testability.analyze (Lazy.force datapath_c))
  in
  {
    dfg;
    cons;
    schedule;
    binding;
    caches =
      {
        consistent_c;
        datapath_c;
        analysis_c;
        etpn_c = lazy (Etpn.build_exn dfg schedule binding);
        area_c = area;
      };
  }

let init dfg =
  let cons = Constraints.of_dfg dfg in
  make ~dfg ~cons ~schedule:(Basic.asap_exn cons)
    ~binding:(Binding.default dfg) ()

let consistent t = Lazy.force t.caches.consistent_c

let datapath t = Lazy.force t.caches.datapath_c

let etpn t = Lazy.force t.caches.etpn_c

let execution_time t = Schedule.length t.schedule

let analysis t = Lazy.force t.caches.analysis_c

let area t ~bits =
  match List.assoc_opt bits t.caches.area_c with
  | Some h -> h
  | None ->
    let h = Hlts_floorplan.Floorplan.area (datapath t) ~bits in
    t.caches.area_c <- (bits, h) :: t.caches.area_c;
    h

let with_constraints t cons =
  match Basic.asap cons with
  | Error _ -> None
  | Ok schedule ->
    Some (make ~dfg:t.dfg ~cons ~schedule ~binding:t.binding ())

let with_binding t binding =
  make ~dfg:t.dfg ~cons:t.cons ~schedule:t.schedule ~binding ()
