module Dfg = Hlts_dfg.Dfg

module ArcSet = Set.Make (struct
  type t = int * int

  let compare = compare
end)

module IntMap = Map.Make (Int)

(* The constraint graph is queried far more often than it is extended:
   every head-to-head step of a chain merger asks [reachable]/[would_cycle]
   several times, and every SR2 trial levels the whole graph. The
   representation therefore keeps

   - a dense id->index map and per-node base adjacency (by id, and the
     predecessors by dense index for [levels]), built once per DFG and
     shared (physically) by every constraint set derived from it, and
   - a transitively-closed reachability bitset per node ([reach], one
     [Bytes] row per operation), maintained incrementally by [add_arc]
     with copy-on-write of the rows whose closure grows.

   [reachable], [would_cycle], [known] and [is_acyclic] are O(1);
   [add_arc] pays one pass over the rows that can reach the arc's tail.
   The structure stays persistent: trial constraint sets branched off a
   common ancestor share all unchanged rows. *)

(* Immutable per-DFG part. *)
type base = {
  ids : int array;  (** dense index -> op id, in DFG op order *)
  index : (int, int) Hashtbl.t;  (** op id -> dense index *)
  dpreds : int list array;  (** data predecessors (ids, sorted uniq) *)
  dsuccs : int list array;  (** data successors (ids, sorted uniq) *)
  dpred_ix : int array array;  (** [dpreds] as dense indices *)
}

type t = {
  base : base;
  dfg : Dfg.t;
  extra : ArcSet.t;
  xpreds : int list IntMap.t;  (** extra predecessors (sorted uniq ids) *)
  xsuccs : int list IntMap.t;
  reach : Bytes.t array;
      (** strict reachability: row [i] bit [j] iff a path of >= 1 arc leads
          from op [ids.(i)] to op [ids.(j)] *)
  cyclic : bool;
}

(* --- bitset helpers ---------------------------------------------------- *)

let bit_get row j =
  Char.code (Bytes.unsafe_get row (j lsr 3)) land (1 lsl (j land 7)) <> 0

let bit_set row j =
  Bytes.unsafe_set row (j lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get row (j lsr 3)) lor (1 lsl (j land 7))))

let or_into dst src =
  for k = 0 to Bytes.length dst - 1 do
    Bytes.unsafe_set dst k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst k)
         lor Char.code (Bytes.unsafe_get src k)))
  done

(* Full closure from a per-index successor function; handles cycles (a node
   on a cycle reaches itself). Used at [of_dfg] and as the fallback when an
   [add_arc] closes a cycle — the incremental update only covers the DAG
   case. *)
let closure n succs_of =
  let nb = (n + 7) / 8 in
  Array.init n (fun i ->
      let row = Bytes.make nb '\000' in
      let visited = Array.make n false in
      let rec dfs j =
        List.iter
          (fun k ->
            if not visited.(k) then begin
              visited.(k) <- true;
              bit_set row k;
              dfs k
            end)
          (succs_of j)
      in
      dfs i;
      row)

let is_cyclic_reach reach =
  let n = Array.length reach in
  let rec loop i = i < n && (bit_get reach.(i) i || loop (i + 1)) in
  loop 0

(* --- construction ------------------------------------------------------ *)

let of_dfg dfg =
  let ops = dfg.Dfg.ops in
  let n = List.length ops in
  let ids = Array.make n 0 in
  let index = Hashtbl.create (2 * n) in
  List.iteri
    (fun i o ->
      ids.(i) <- o.Dfg.id;
      Hashtbl.replace index o.Dfg.id i)
    ops;
  let dpreds = Array.make n [] in
  let dsuccs = Array.make n [] in
  List.iteri
    (fun i o ->
      let ps = List.sort_uniq compare (Dfg.pred_ids o) in
      dpreds.(i) <- ps;
      List.iter
        (fun p ->
          let pi = Hashtbl.find index p in
          dsuccs.(pi) <- o.Dfg.id :: dsuccs.(pi))
        ps)
    ops;
  Array.iteri (fun i l -> dsuccs.(i) <- List.sort_uniq compare l) dsuccs;
  let succs_of i =
    List.map (Hashtbl.find index) dsuccs.(i)
  in
  let reach = closure n succs_of in
  {
    base =
      {
        ids;
        index;
        dpreds;
        dsuccs;
        dpred_ix =
          Array.map
            (fun l -> Array.of_list (List.map (Hashtbl.find index) l))
            dpreds;
      };
    dfg;
    extra = ArcSet.empty;
    xpreds = IntMap.empty;
    xsuccs = IntMap.empty;
    reach;
    cyclic = is_cyclic_reach reach;
  }

let dfg t = t.dfg

let known t id = Hashtbl.mem t.base.index id

let idx t id = Hashtbl.find t.base.index id

(* Sorted-unique merge of two sorted-unique lists. *)
let rec merge_sorted xs ys =
  match xs, ys with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    if x < y then x :: merge_sorted xs' ys
    else if y < x then y :: merge_sorted xs ys'
    else x :: merge_sorted xs' ys'

let insert_sorted x l =
  let rec loop = function
    | [] -> [ x ]
    | y :: rest as l -> if x < y then x :: l else if x = y then l else y :: loop rest
  in
  loop l

let extra_adj map id = Option.value ~default:[] (IntMap.find_opt id map)

let preds t id = merge_sorted t.base.dpreds.(idx t id) (extra_adj t.xpreds id)

let succs t id = merge_sorted t.base.dsuccs.(idx t id) (extra_adj t.xsuccs id)

(* Combined successor indices of dense index [i] — only needed by the
   full-closure fallback. *)
let all_succs_of t i =
  List.map (idx t) (succs t t.base.ids.(i))

let add_arc t a b =
  if not (known t a) then invalid_arg (Printf.sprintf "Constraints.add_arc: N%d" a);
  if not (known t b) then invalid_arg (Printf.sprintf "Constraints.add_arc: N%d" b);
  if ArcSet.mem (a, b) t.extra then t
  else begin
    let ia = idx t a and ib = idx t b in
    let t =
      {
        t with
        extra = ArcSet.add (a, b) t.extra;
        xpreds = IntMap.add b (insert_sorted a (extra_adj t.xpreds b)) t.xpreds;
        xsuccs = IntMap.add a (insert_sorted b (extra_adj t.xsuccs a)) t.xsuccs;
      }
    in
    if t.cyclic || a = b || bit_get t.reach.(ib) ia then begin
      (* The arc closes a cycle (or the graph already had one): the
         incremental DAG update does not apply, rebuild the closure. *)
      let reach = closure (Array.length t.base.ids) (all_succs_of t) in
      { t with reach; cyclic = true }
    end
    else begin
      (* DAG case: every node that reaches [a] (and [a] itself) now also
         reaches [b] and everything [b] reaches. Rows already containing
         [b] are transitively closed, hence already complete. *)
      let reach = Array.copy t.reach in
      let n = Array.length reach in
      let grow i =
        if not (bit_get reach.(i) ib) then begin
          let row = Bytes.copy reach.(i) in
          bit_set row ib;
          or_into row t.reach.(ib);
          reach.(i) <- row
        end
      in
      for i = 0 to n - 1 do
        if i = ia || bit_get reach.(i) ia then grow i
      done;
      { t with reach }
    end
  end

let extra_arcs t = ArcSet.elements t.extra

let reachable t a b = a = b || bit_get t.reach.(idx t a) (idx t b)

let would_cycle t a b = a = b || reachable t b a

let is_acyclic t = not t.cyclic

(* A memoized recursion over the base and extra predecessors by dense
   index; a level of 0 marks a node not yet visited. *)
let levels t =
  if t.cyclic then None
  else begin
    let ids = t.base.ids in
    let levels = Array.make (Array.length ids) 0 in
    let rec level i =
      if levels.(i) = 0 then begin
        let top =
          Array.fold_left (fun acc p -> max acc (level p)) 0 t.base.dpred_ix.(i)
        in
        let top =
          List.fold_left
            (fun acc p -> max acc (level (idx t p)))
            top (extra_adj t.xpreds ids.(i))
        in
        levels.(i) <- top + 1
      end;
      levels.(i)
    in
    for i = 0 to Array.length ids - 1 do
      ignore (level i)
    done;
    Some levels
  end
