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
    and (src, dst) pairs. Placement keeps the free cells next to placed
    blocks as an ordered set, updated in O(log n) per placement, and
    picks each block's cell by one pass over that set (ties go to the
    least cell). With [n] blocks, [f] frontier cells (at most [2n + 2])
    and average degree [d], a plan costs O(n (f d + log n)) plus
    sorting the interconnect. *)

val area : Hlts_etpn.Datapath.t -> bits:int -> float
(** [total] of {!plan}. *)
