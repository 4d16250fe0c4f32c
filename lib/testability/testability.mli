(** RT-level testability analysis (after Gu, Kuchcinski & Peng 1994).

    Four measures per data-path node, for a stuck-at fault model with
    random-then-deterministic ATPG:

    - CC, combinational controllability in (0, 1]: ease of setting a value
      (1 on primary inputs, decaying through functional units by
      per-operation transfer factors);
    - SC, sequential controllability >= 0: weighted register stages on the
      best path from primary inputs;
    - CO / SO: the symmetric observability measures from primary outputs.

    Propagation: CC/SC flow forward from input ports, CO/SO backward from
    output ports and condition outputs; a functional unit's output is as
    controllable as its {e harder} input times the unit's transfer factor,
    and observing a unit input requires controlling the opposite input
    (the CO discount). Data-path loops are handled by monotone fixpoint
    iteration — CC/CO only ever increase and SC/SO only decrease, so the
    sweep converges.

    The paper defines node controllability as the best controllability of
    any of the node's input lines, and node observability as the best
    observability of any of its output lines (§3); {!node_measures}
    follows that definition.

    The analysis reads only the schedule-free data-path view (nodes,
    ports and arcs), so a merge attempt needs no ETPN for it. Measures
    live in arrays by node id, and every node's measures are tabulated
    once per analysis: {!node_measures} and {!balance_score} are array
    reads. *)

type measures = {
  cc : float;
  sc : float;
  co : float;
  so : float;
}

type t

val analyze : Hlts_etpn.Datapath.t -> t

val datapath : t -> Hlts_etpn.Datapath.t
(** The data path the analysis was computed on. *)

val node_measures : t -> int -> measures
(** Measures of a data-path node by node id. Unreachable values appear as
    [cc = 0.] / [sc = infinity] (and symmetrically for observability).
    @raise Not_found if no node has the id. *)

val register_measures : t -> (int * measures) list
(** Measures of every register node, keyed by register id. *)

val fu_measures : t -> (int * measures) list

val seq_depth_total : t -> float
(** Sum over registers of SC + SO — the global sequential-depth metric
    minimized by the SR1/SR2 enhancement strategy. Unreachable registers
    are clamped to a large finite penalty so the metric stays comparable
    across design variants. *)

val balance_score : t -> int -> int -> float
(** [balance_score t u v] ranks the merger of data-path nodes [u] and [v]
    under the controllability/observability balance principle: the merged
    node inherits the best controllability and the best observability of
    the pair, so the score is the improvement of the worse dimension —
    highest when a well-controllable/poorly-observable node is folded
    onto a well-observable/poorly-controllable one. *)

val testability_cost : t -> float
(** Aggregate scalar, lower is better: sum over nodes of
    [(1-cc) + (1-co)] plus a small weight of the sequential depths.
    Used by ablation experiments. *)

val pp_measures : Format.formatter -> measures -> unit
