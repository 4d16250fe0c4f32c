(* Bumped whenever a kind's payload type changes: [Marshal] is untyped,
   so an entry of an older format must fail the header check and be
   evicted, never unmarshalled as the new type. /2: a [result] entry
   is the engine's sealed answer (response, journal and both digests). *)
let magic = "hlts-cache/2"

let default_dir () =
  match Sys.getenv_opt "HLTS_CACHE_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None ->
    let base =
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat h ".cache"
      | Some _ | None -> ".cache"
    in
    Filename.concat base "hlts"

(* --- in-memory LRU ------------------------------------------------- *)

(* Doubly-linked recency list threaded through the table's nodes; the
   head is most recent. Keys are (kind, digest). *)
type node = {
  key : string * string;
  v : Obj.t;
  mutable prev : node option;
  mutable next : node option;
}

type lru = {
  tbl : (string * string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  capacity : int;
}

let lru_unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let lru_push_front l n =
  n.next <- l.head;
  (match l.head with Some h -> h.prev <- Some n | None -> l.tail <- Some n);
  l.head <- Some n

let lru_find l key =
  match Hashtbl.find_opt l.tbl key with
  | None -> None
  | Some n ->
    lru_unlink l n;
    lru_push_front l n;
    Some n.v

let lru_store l key v =
  (match Hashtbl.find_opt l.tbl key with
  | Some n ->
    lru_unlink l n;
    Hashtbl.remove l.tbl key
  | None -> ());
  let n = { key; v; prev = None; next = None } in
  Hashtbl.replace l.tbl key n;
  lru_push_front l n;
  if Hashtbl.length l.tbl > l.capacity then
    match l.tail with
    | Some t ->
      lru_unlink l t;
      Hashtbl.remove l.tbl t.key
    | None -> ()

(* --- the cache ----------------------------------------------------- *)

type t = {
  mem : lru;
  disk : string option;
  mutable mem_hits : int;
  mutable mem_misses : int;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable disk_errors : int;
}

type stats = {
  mem_entries : int;
  mem_hits : int;
  mem_misses : int;
  disk_hits : int;
  disk_misses : int;
  disk_errors : int;
}

let create ?(dir = None) ?(mem_entries = 512) () =
  {
    mem =
      {
        tbl = Hashtbl.create 64;
        head = None;
        tail = None;
        capacity = max 1 mem_entries;
      };
    disk = dir;
    mem_hits = 0;
    mem_misses = 0;
    disk_hits = 0;
    disk_misses = 0;
    disk_errors = 0;
  }

let dir t = t.disk

let stats t =
  {
    mem_entries = Hashtbl.length t.mem.tbl;
    mem_hits = t.mem_hits;
    mem_misses = t.mem_misses;
    disk_hits = t.disk_hits;
    disk_misses = t.disk_misses;
    disk_errors = t.disk_errors;
  }

(* Entries live at <dir>/<kind>/<first-two-hex>/<digest>, fanned out so
   no directory grows unboundedly. *)
let entry_path dir ~kind digest =
  let fan = if String.length digest >= 2 then String.sub digest 0 2 else "xx" in
  Filename.concat (Filename.concat (Filename.concat dir kind) fan) digest

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Header: one line, then the marshalled payload. The checksum covers
   the payload only; the length makes truncation detectable without
   hashing a short read. *)
let header ~kind ~md5 ~len =
  Printf.sprintf "%s %s %s %s %d\n" magic kind Sys.ocaml_version md5 len

(* Reads and validates one entry file. [`Corrupt] covers every way the
   bytes can fail to be what the header promises (or the header itself
   is not ours / not this version / another compiler's Marshal). *)
let read_entry path =
  match open_in_bin path with
  | exception Sys_error _ -> `Missing
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> `Corrupt
        | line -> (
          match String.split_on_char ' ' line with
          | [ m; kind; ocaml; md5; len ] when m = magic -> (
            if ocaml <> Sys.ocaml_version then `Corrupt
            else
              match int_of_string_opt len with
              | None -> `Corrupt
              | Some len -> (
                match really_input_string ic len with
                | exception End_of_file -> `Corrupt
                | payload ->
                  if
                    pos_in ic <> in_channel_length ic
                    || Digest.to_hex (Digest.string payload) <> md5
                  then `Corrupt
                  else `Entry (kind, payload)))
          | _ -> `Corrupt))

let disk_find t ~kind digest =
  match t.disk with
  | None -> None
  | Some dir -> (
    let path = entry_path dir ~kind digest in
    match read_entry path with
    | `Missing ->
      t.disk_misses <- t.disk_misses + 1;
      None
    | `Corrupt ->
      (* detected: report, evict, miss *)
      t.disk_errors <- t.disk_errors + 1;
      Hlts_obs.count "cache.disk_errors";
      (try Sys.remove path with Sys_error _ -> ());
      None
    | `Entry (k, payload) when k = kind ->
      t.disk_hits <- t.disk_hits + 1;
      Some (Marshal.from_string payload 0)
    | `Entry _ ->
      (* filed under the wrong kind: treat as corrupt *)
      t.disk_errors <- t.disk_errors + 1;
      (try Sys.remove path with Sys_error _ -> ());
      None)

let disk_store t ~kind digest v =
  match t.disk with
  | None -> ()
  | Some dir -> (
    try
      let path = entry_path dir ~kind digest in
      mkdir_p (Filename.dirname path);
      let payload = Marshal.to_string v [] in
      let tmp =
        Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (header ~kind ~md5:(Digest.to_hex (Digest.string payload))
               ~len:(String.length payload));
          output_string oc payload);
      Sys.rename tmp path
    with Sys_error _ | Unix.Unix_error _ ->
      (* a read-only or full cache directory degrades to memory-only *)
      ())

let find t ~kind digest =
  match lru_find t.mem (kind, digest) with
  | Some v ->
    t.mem_hits <- t.mem_hits + 1;
    Hlts_obs.count "cache.mem_hits";
    Some (Obj.obj v)
  | None -> (
    t.mem_misses <- t.mem_misses + 1;
    match disk_find t ~kind digest with
    | None -> None
    | Some v ->
      Hlts_obs.count "cache.disk_hits";
      lru_store t.mem (kind, digest) (Obj.repr v);
      Some v)

let store t ?(mem_only = false) ~kind digest v =
  lru_store t.mem (kind, digest) (Obj.repr v);
  if not mem_only then disk_store t ~kind digest v

(* --- directory maintenance ----------------------------------------- *)

type scan = {
  entries : int;
  bytes : int;
  kinds : (string * int) list;
  corrupt : string list;
}

(* Entry files are exactly the regular files two levels below a kind
   directory; anything at the top level (sockets, lock files) is out of
   scope by construction. *)
let entry_files dir =
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.concat_map
    (fun kind ->
      let kdir = Filename.concat dir kind in
      if not (try Sys.is_directory kdir with Sys_error _ -> false) then []
      else
        List.concat_map
          (fun fan ->
            let fdir = Filename.concat kdir fan in
            if not (try Sys.is_directory fdir with Sys_error _ -> false) then
              []
            else
              List.filter_map
                (fun f ->
                  let path = Filename.concat fdir f in
                  if try Sys.is_directory path with Sys_error _ -> true then
                    None
                  else Some (kind, path))
                (ls fdir))
          (ls kdir))
    (ls dir)

let scan_dir dir =
  List.fold_left
    (fun acc (kind, path) ->
      match read_entry path with
      | `Entry (k, payload) when k = kind ->
        let size =
          String.length payload
          + String.length
              (header ~kind:k
                 ~md5:(Digest.to_hex (Digest.string payload))
                 ~len:(String.length payload))
        in
        {
          acc with
          entries = acc.entries + 1;
          bytes = acc.bytes + size;
          kinds =
            (match List.assoc_opt kind acc.kinds with
            | Some n -> (kind, n + 1) :: List.remove_assoc kind acc.kinds
            | None -> (kind, 1) :: acc.kinds);
        }
      | `Missing -> acc
      | `Entry _ | `Corrupt ->
        (try Sys.remove path with Sys_error _ -> ());
        { acc with corrupt = path :: acc.corrupt })
    { entries = 0; bytes = 0; kinds = []; corrupt = [] }
    (entry_files dir)
  |> fun s ->
  {
    s with
    kinds = List.sort compare s.kinds;
    corrupt = List.rev s.corrupt;
  }

let clear_dir dir =
  List.fold_left
    (fun n (_, path) ->
      match Sys.remove path with () -> n + 1 | exception Sys_error _ -> n)
    0 (entry_files dir)
