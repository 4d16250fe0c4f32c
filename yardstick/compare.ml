(* [--compare A B]: two sets of recorded runs (the lines [--record]
   appends), one row per workload and metric, each side's median and
   quartiles, and a verdict. A gain needs at least ten pairs (i-th run
   against i-th run), the change (B) winning nine in ten of them (ties
   count for neither), and a median gap larger than the parent's (A)
   interquartile range. With a bound from BENCHMARK.json, a median worse
   by more than the bound is worse, and a spread wider than the bound is
   unresolved unless every B run beats every A run, which rules out a
   regression but, short of the pair rule, proves no gain. *)

open Measure

let read_records path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match Json.of_string line with
        | Ok j -> Some j
        | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    (read_lines path)

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* (workload, metric) -> values in file order *)
let samples records =
  let tbl = Hashtbl.create 64 in
  let keys = ref [] in
  List.iter
    (fun r ->
      let w = json_str "workload" r in
      match Option.bind (Json.member "result" r) (Json.member "metrics") with
      | Some (Json.Obj ms) ->
        List.iter
          (fun (name, v) ->
            match number (Json.member "value" v) with
            | Some x ->
              let k = (w, name) in
              if not (Hashtbl.mem tbl k) then keys := k :: !keys;
              Hashtbl.replace tbl k
                (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
            | None -> ())
          ms
      | _ -> ())
    records;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !keys

let bounds path =
  match Json.of_string (String.concat "\n" (read_lines path)) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match Json.member "end_to_end" j with
    | Some (Json.List ms) ->
      List.filter_map
        (fun m ->
          Option.map (fun b -> (json_str "name" m, b)) (number (Json.member "bound" m)))
        ms
    | _ -> [])

let verdict ~better ~bound a b =
  (* positive when [y] reads better than [x] *)
  let gain x y = match better with Lower -> x -. y | Higher -> y -. x in
  let ma = median a and mb = median b in
  let iqr xs = let q1, q3 = quartiles xs in q3 -. q1 in
  let ps = zip a b in
  let wins f = List.length (List.filter (fun (x, y) -> f (gain x y)) ps) in
  let decisive w = List.length ps >= 10 && 10 * w >= 9 * List.length ps in
  let gap = Float.abs (mb -. ma) > iqr a in
  let improved = decisive (wins (fun g -> g > 0.0)) && gap && gain ma mb > 0.0 in
  match bound with
  | None ->
    if improved then "improved"
    else if decisive (wins (fun g -> g < 0.0)) && gap then "worse"
    else "unchanged"
  | Some bound ->
    let spread =
      Float.max (ratio (iqr a) (Float.abs ma)) (ratio (iqr b) (Float.abs mb))
    in
    if improved then "improved"
    else if -.gain ma mb > bound *. Float.abs ma then "worse"
    else if spread > bound then
      if List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b
      then "unchanged"
      else "unresolved"
    else "unchanged"

let main ~bench_json a_path b_path =
  let bounds = bounds bench_json in
  let a = samples (read_records a_path) in
  let b = samples (read_records b_path) in
  let catalog = end_to_end @ per_layer in
  Printf.printf "%-12s %-30s %-6s %34s %34s %8s %s\n" "workload" "metric" "unit"
    "A median [q1, q3] n" "B median [q1, q3] n" "change" "verdict";
  let side xs =
    let q1, q3 = quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] %d" (median xs) q1 q3 (List.length xs)
  in
  List.iter
    (fun (((w, name) as key), xa) ->
      match (List.assoc_opt key b, List.find_opt (fun m -> m.name = name) catalog) with
      | Some xb, Some m ->
        let change = 100.0 *. ratio (median xb -. median xa) (Float.abs (median xa)) in
        Printf.printf "%-12s %-30s %-6s %34s %34s %+7.1f%% %s\n" w name m.unit
          (side xa) (side xb) change
          (verdict ~better:m.better ~bound:(List.assoc_opt name bounds) xa xb)
      | _ -> ())
    a
