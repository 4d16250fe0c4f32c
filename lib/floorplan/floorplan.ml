module Datapath = Hlts_etpn.Datapath
module Op = Hlts_dfg.Op

type result = {
  cell_area : float;
  wire_cost : float;
  total : float;
  placement : (int * (float * float)) list;
}

(* Area of one data-path block given its incoming arcs, multiplexers
   folded into the destination node that owns them: one slice per
   source beyond the first on each port, summed over the ports in the
   order their first arc appears. *)
let block_area dp ~bits id in_arcs =
  let own =
    match Datapath.node dp id with
    | Datapath.Reg _ -> Module_library.reg_area ~bits
    | Datapath.Fu fu -> Module_library.fu_area fu.Hlts_alloc.Binding.fu_class ~bits
    | Datapath.Port_in _ | Datapath.Port_out _ | Datapath.Cond_out _
    | Datapath.Const _ ->
      Module_library.port_area
  in
  let rec mux acc = function
    | [] -> acc
    | a :: _ as arcs ->
      let same, rest =
        List.partition (fun b -> b.Datapath.a_port = a.Datapath.a_port) arcs
      in
      let slices = float_of_int (List.length same - 1) in
      mux (acc +. (slices *. Module_library.mux_slice_area ~bits)) rest
  in
  own +. mux 0.0 in_arcs

module Cells = Set.Make (struct
  type t = int * int

  let compare (i1, j1) (i2, j2) =
    let c = Int.compare i1 i2 in
    if c <> 0 then c else Int.compare j1 j2
end)

let around (i, j) = [ (i + 1, j); (i - 1, j); (i, j + 1); (i, j - 1) ]

let plan dp ~bits =
  let n = Datapath.size dp in
  let ids = List.init n Fun.id in
  let degree = Array.make n 0 and adj = Array.make n [] in
  let note a b =
    degree.(a) <- degree.(a) + 1;
    adj.(a) <- b :: adj.(a)
  in
  List.iter
    (fun (a, b) -> if a = b then note a b else (note a b; note b a))
    (Datapath.interconnect dp);
  let order =
    List.sort
      (fun a b ->
        let c = Int.compare degree.(b) degree.(a) in
        if c <> 0 then c else Int.compare a b)
      ids
  in
  (* Slot grid: pitch derived from the average block size so distances are
     in mm. *)
  let cell_area =
    Hlts_util.Listx.sum_by
      (fun id -> block_area dp ~bits id (Datapath.in_arcs dp id))
      ids
  in
  let pitch = sqrt (cell_area /. float_of_int (max 1 n)) in
  (* [frontier] holds exactly the free cells next to an occupied one, so
     a placement takes O(log n) to keep it and never rescans the grid. *)
  let slot = Array.make n None in
  let occupied = ref Cells.empty and frontier = ref Cells.empty in
  let place id cell =
    slot.(id) <- Some cell;
    occupied := Cells.add cell !occupied;
    frontier :=
      List.fold_left
        (fun acc c -> if Cells.mem c !occupied then acc else Cells.add c acc)
        (Cells.remove cell !frontier) (around cell)
  in
  (* Each block goes to the frontier cell with the least Manhattan wire
     length to its placed neighbours, summed exactly in int. The fold
     runs in ascending cell order and keeps the first minimum (strict
     [<]), so ties go to the least cell. *)
  let place_next id =
    if Cells.is_empty !occupied then place id (0, 0)
    else begin
      let placed = List.filter_map (fun nb -> slot.(nb)) adj.(id) in
      let wire (i, j) =
        List.fold_left
          (fun acc (ni, nj) -> acc + abs (i - ni) + abs (j - nj))
          0 placed
      in
      let best =
        Cells.fold
          (fun c ((_, best_len) as best) ->
            let len = wire c in
            if len < best_len then (c, len) else best)
          !frontier ((0, 0), max_int)
      in
      place id (fst best)
    end
  in
  List.iter place_next order;
  let center id =
    let i, j = Option.get slot.(id) in
    (float_of_int i *. pitch, float_of_int j *. pitch)
  in
  let wire_cost =
    Hlts_util.Listx.sum_by
      (fun a ->
        let x1, y1 = center a.Datapath.a_src
        and x2, y2 = center a.Datapath.a_dst in
        let len = abs_float (x1 -. x2) +. abs_float (y1 -. y2) in
        let wid =
          match Datapath.node dp a.Datapath.a_dst with
          | Datapath.Cond_out _ -> Module_library.wire_width ~bits:1
          | Datapath.Reg _ | Datapath.Fu _ | Datapath.Port_in _
          | Datapath.Port_out _ | Datapath.Const _ ->
            Module_library.wire_width ~bits
        in
        len *. wid)
      (Datapath.arcs dp)
  in
  {
    cell_area;
    wire_cost;
    total = cell_area +. wire_cost;
    placement = List.map (fun id -> (id, center id)) ids;
  }

let area dp ~bits = (plan dp ~bits).total
