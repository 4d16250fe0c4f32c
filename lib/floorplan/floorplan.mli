(** Connectivity-driven floorplanning and hardware-cost estimation
    (after Peng & Kuchcinski 1994).

    The estimator of §4.2:
    [H = sum Area(V_i) + sum Len(A_j) * Wid(A_j)],
    where areas come from {!Module_library}, lengths from a slot-based
    placement built by a simple connectivity heuristic (most-connected
    blocks first, each block dropped on the frontier slot minimizing the
    Manhattan wire length to its already-placed neighbours), and widths
    are bit widths times a weighting factor. *)

type result = {
  cell_area : float;   (** sum of block areas, mm2 *)
  wire_cost : float;   (** sum len*wid over data-path arcs, mm2 *)
  total : float;       (** the paper's H *)
  placement : (int * (float * float)) list;
      (** node id -> block center, mm; every data-path node is placed *)
}

val plan : Hlts_etpn.Datapath.t -> bits:int -> result
(** Reads only the schedule-free data-path view: nodes, in-arc ports
    and arc endpoints. Blocks go most-connected first (ties by id), each
    to the frontier cell (a free cell next to a placed block) with the
    least Manhattan wire length to its placed neighbours; ties go to
    the least cell [(i, j)]. The frontier is an unordered int array
    scanned once per block, and a block with one placed neighbour takes
    the least free cell next to it without a scan. Cells are kept in an
    open-addressing table of at most [3n + 2] entries, so a plan of [n]
    blocks uses O(n) memory whatever shape it grows, and costs
    O(n f + a) for [f] frontier cells (at most [2n + 2]) and [a] arcs.
    The working arrays are reused per domain, so concurrent plans in
    different domains do not share them. *)

val area : Hlts_etpn.Datapath.t -> bits:int -> float
(** [total] of {!plan}, without building the placement. *)
