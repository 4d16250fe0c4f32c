module Datapath = Hlts_etpn.Datapath

type result = {
  cell_area : float;
  wire_cost : float;
  total : float;
  placement : (int * (float * float)) list;
}

let port_bit = function
  | None -> 1
  | Some Datapath.P_left -> 2
  | Some Datapath.P_right -> 4

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
  let same p arcs =
    List.fold_left
      (fun n b -> if port_bit b.Datapath.a_port = p then n + 1 else n)
      0 arcs
  in
  let rec mux acc seen = function
    | [] -> acc
    | a :: rest ->
      let p = port_bit a.Datapath.a_port in
      if seen land p <> 0 then mux acc seen rest
      else
        let slices = float_of_int (same p rest) in
        mux (acc +. (slices *. Module_library.mux_slice_area ~bits)) (seen lor p) rest
  in
  own +. mux 0.0 0 in_arcs

(* Working arrays of one plan, kept per domain and replaced by larger
   ones when a bigger view comes, so a plan allocates nothing in
   proportion to its size. A plan never yields, so lanes sharing a
   domain (inline pool lanes too) never interleave on them. *)
type work = {
  stamp : int array;  (* node -> the last tag that counted it *)
  degree : int array;
  order : int array;  (* placement order; bucket starts before *)
  si : int array;  (* node -> row, [min_int] until placed *)
  sj : int array;  (* node -> column *)
  qi : int array;  (* placed neighbours of the block being placed *)
  qj : int array;
  fi : int array;  (* frontier cells, unordered: row, ... *)
  fj : int array;  (* ... column ... *)
  fslot : int array;  (* ... and slot in [cells] *)
  cells : int array;  (* open addressing: packed cell or [empty] *)
  where : int array;  (* slot -> frontier index, -1 once occupied *)
}

(* [cells] holds the occupied cells and the frontier, at most
   [n + (2n + 2)] cells (an [n]-cell polyomino has at most [2n + 2] free
   neighbouring cells), and is kept at most half full. *)
let table_bits n =
  let rec go b = if 1 lsl b >= 2 * ((3 * n) + 2) then b else go (b + 1) in
  go 4

let make_work cap =
  let ints len = Array.make len 0 in
  {
    stamp = ints cap;
    degree = ints cap;
    order = ints (cap + 1);
    si = ints cap;
    sj = ints cap;
    qi = ints cap;
    qj = ints cap;
    fi = ints ((2 * cap) + 2);
    fj = ints ((2 * cap) + 2);
    fslot = ints ((2 * cap) + 2);
    cells = ints (1 lsl table_bits cap);
    where = ints (1 lsl table_bits cap);
  }

let work_key = Domain.DLS.new_key (fun () -> make_work 0)

let work n =
  let s = Domain.DLS.get work_key in
  let cap = Array.length s.stamp in
  if n <= cap then s
  else begin
    let s = make_work (max n (2 * cap)) in
    Domain.DLS.set work_key s;
    s
  end

let empty = min_int

(* Rows and columns stay within [-n, n], so the pack is injective and
   never [empty]. *)
let pack i j = (i lsl 32) + j

(* Calls [f] on the far end of every arc at [v]: sources of its in-arcs,
   then destinations of its out-arcs. *)
let iter_neighbours dp v f =
  List.iter (fun a -> f a.Datapath.a_src) (Datapath.in_arcs dp v);
  List.iter (fun a -> f a.Datapath.a_dst) (Datapath.out_arcs dp v)

(* Places the [n > 0] blocks of [dp] at [s.si]/[s.sj] and returns the
   sum of block areas, in node id order. *)
let place dp ~bits s n =
  let { stamp; degree; order; si; sj; qi; qj; fi; fj; fslot; cells; where } =
    s
  in
  (* Distinct neighbours, a self-loop once: [stamp.(u) = v] once [u] is
     counted for [v]. *)
  Array.fill stamp 0 n (-1);
  let max_degree = ref 0 in
  for v = 0 to n - 1 do
    let d = ref 0 in
    iter_neighbours dp v (fun u ->
        if stamp.(u) <> v then begin
          stamp.(u) <- v;
          incr d
        end);
    degree.(v) <- !d;
    max_degree := max !max_degree !d
  done;
  (* Most-connected first, ties by id: a counting sort, descending. The
     bucket starts live in [order] until the ids, staged in [qi],
     replace them. *)
  Array.fill order 0 (!max_degree + 1) 0;
  for v = 0 to n - 1 do
    order.(degree.(v)) <- order.(degree.(v)) + 1
  done;
  let above = ref 0 in
  for d = !max_degree downto 0 do
    let c = order.(d) in
    order.(d) <- !above;
    above := !above + c
  done;
  for v = 0 to n - 1 do
    let d = degree.(v) in
    qi.(order.(d)) <- v;
    order.(d) <- order.(d) + 1
  done;
  Array.blit qi 0 order 0 n;
  let cell_area = ref 0.0 in
  for id = 0 to n - 1 do
    cell_area := !cell_area +. block_area dp ~bits id (Datapath.in_arcs dp id)
  done;
  (* [fi]/[fj] hold exactly the free cells next to an occupied one, in
     no order; [cells] holds them and the occupied cells. *)
  let tbits = table_bits n in
  let mask = (1 lsl tbits) - 1 in
  Array.fill cells 0 (mask + 1) empty;
  Array.fill si 0 n min_int;
  let rec probe key h =
    let k = cells.(h) in
    if k = key || k = empty then h else probe key ((h + 1) land mask)
  in
  let slot i j =
    let key = pack i j in
    probe key ((key * 0x2545F4914F6CDD1D) lsr (63 - tbits))
  in
  let nf = ref 0 in
  let touch i j =
    let h = slot i j in
    if cells.(h) = empty then begin
      cells.(h) <- pack i j;
      where.(h) <- !nf;
      fi.(!nf) <- i;
      fj.(!nf) <- j;
      fslot.(!nf) <- h;
      incr nf
    end
  in
  (* Block [id] onto frontier cell [k], which leaves the frontier by a
     swap with the last one. *)
  let occupy id k =
    let i = fi.(k) and j = fj.(k) and h = fslot.(k) and last = !nf - 1 in
    fi.(k) <- fi.(last);
    fj.(k) <- fj.(last);
    fslot.(k) <- fslot.(last);
    where.(fslot.(k)) <- k;
    where.(h) <- -1;
    nf := last;
    si.(id) <- i;
    sj.(id) <- j;
    touch (i + 1) j;
    touch (i - 1) j;
    touch i (j + 1);
    touch i (j - 1)
  in
  (* The least free cell next to occupied [(a, b)], as a frontier index,
     or -1: those cells were touched when [(a, b)] was occupied. *)
  let free_next_to a b =
    let pick i j k = if k >= 0 then k else where.(slot i j) in
    pick (a + 1) b (pick a (b + 1) (pick a (b - 1) (pick (a - 1) b (-1))))
  in
  touch 0 0;
  occupy order.(0) 0;
  for r = 1 to n - 1 do
    let id = order.(r) in
    (* The placed neighbours, each once. *)
    let tag = n + id and nq = ref 0 in
    iter_neighbours dp id (fun u ->
        if stamp.(u) <> tag then begin
          stamp.(u) <- tag;
          if si.(u) <> min_int then begin
            qi.(!nq) <- si.(u);
            qj.(!nq) <- sj.(u);
            incr nq
          end
        end);
    (* The frontier cell with the least Manhattan wire length to them,
       summed exactly in int (branch-free [abs]); ties go to the least
       [(i, j)]. With one placed neighbour, a free cell next to it has
       the least length, 1. *)
    let next = if !nq = 1 then free_next_to qi.(0) qj.(0) else -1 in
    if next >= 0 then occupy id next
    else begin
      let best = ref 0 and best_len = ref max_int in
      for k = 0 to !nf - 1 do
        let i = fi.(k) and j = fj.(k) in
        let len = ref 0 in
        for q = 0 to !nq - 1 do
          let di = i - qi.(q) and dj = j - qj.(q) in
          let mi = di asr 62 and mj = dj asr 62 in
          len := !len + (di lxor mi) - mi + (dj lxor mj) - mj
        done;
        let len = !len and b = !best in
        if
          len < !best_len
          || (len = !best_len && (i < fi.(b) || (i = fi.(b) && j < fj.(b))))
        then begin
          best := k;
          best_len := len
        end
      done;
      occupy id !best
    end
  done;
  !cell_area

(* Sum over [Datapath.arcs], in order, of the Manhattan length between
   block centres times the wire width. *)
let wire_cost dp ~bits s pitch =
  let x id = float_of_int s.si.(id) *. pitch
  and y id = float_of_int s.sj.(id) *. pitch in
  let wide = Module_library.wire_width ~bits
  and narrow = Module_library.wire_width ~bits:1 in
  let rec sum acc = function
    | [] -> acc
    | a :: rest ->
      let src = a.Datapath.a_src and dst = a.Datapath.a_dst in
      let len = abs_float (x src -. x dst) +. abs_float (y src -. y dst) in
      let wid =
        match Datapath.node dp dst with
        | Datapath.Cond_out _ -> narrow
        | Datapath.Reg _ | Datapath.Fu _ | Datapath.Port_in _
        | Datapath.Port_out _ | Datapath.Const _ ->
          wide
      in
      sum (acc +. (len *. wid)) rest
  in
  sum 0.0 (Datapath.arcs dp)

(* Cell area, pitch and wire cost; the placement is left in the
   domain's working arrays until the next plan. *)
let run dp ~bits =
  let n = Datapath.size dp in
  let s = work n in
  let cell_area = if n = 0 then 0.0 else place dp ~bits s n in
  (* Slot grid: pitch derived from the average block size so distances
     are in mm. *)
  let pitch = sqrt (cell_area /. float_of_int (max 1 n)) in
  (s, pitch, cell_area, wire_cost dp ~bits s pitch)

let plan dp ~bits =
  let s, pitch, cell_area, wire_cost = run dp ~bits in
  let centre id =
    (float_of_int s.si.(id) *. pitch, float_of_int s.sj.(id) *. pitch)
  in
  {
    cell_area;
    wire_cost;
    total = cell_area +. wire_cost;
    placement = List.init (Datapath.size dp) (fun id -> (id, centre id));
  }

let area dp ~bits =
  let _, _, cell_area, wire_cost = run dp ~bits in
  cell_area +. wire_cost
