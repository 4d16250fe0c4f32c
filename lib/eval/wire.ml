module Json = Hlts_obs.Json

type addr = Unix_path of string | Tcp of string * int

let parse_tcp s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 ->
      Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
    | _ -> Error (Printf.sprintf "invalid port %S in %S" port s))

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
        | { Unix.h_addr_list; _ } -> h_addr_list.(0))
    in
    Unix.ADDR_INET (ip, port)

let max_frame = 64 * 1024 * 1024

(* Protocol schema: bumped when a frame shape changes incompatibly.
   Additive envelope fields (like "trace") do NOT bump it — both ends
   ignore fields they don't know. *)
let schema_version = 1

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let decode_prefix b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* Prefix and payload leave in one buffer and one [write] call. *)
let write_frame' fd json =
  let payload = Json.to_string json in
  let n = String.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set frame 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 frame 4 n;
  write_all fd frame 0 (4 + n);
  4 + n

let write_frame fd json = ignore (write_frame' fd json)

(* Reads exactly [len] bytes; [`Eof_at_start] distinguishes a peer that
   closed cleanly between frames from one that died mid-frame. *)
let really_read fd len =
  let b = Bytes.create len in
  let rec go off =
    if off = len then `Bytes b
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 then `Eof_at_start else `Truncated
      | n -> go (off + n)
  in
  go 0

let read_frame fd =
  match really_read fd 4 with
  | `Eof_at_start -> None
  | `Truncated -> failwith "truncated frame prefix"
  | `Bytes hdr -> (
    let len = decode_prefix hdr 0 in
    if len < 0 || len > max_frame then
      failwith (Printf.sprintf "frame of %d bytes exceeds limit" len)
    else
      match really_read fd len with
      | `Eof_at_start | `Truncated -> failwith "truncated frame payload"
      | `Bytes payload -> (
        (* [payload] is fresh and dropped after the parse, which copies
           every string it keeps *)
        match Json.of_string (Bytes.unsafe_to_string payload) with
        | Ok j -> Some j
        | Error e -> failwith (Printf.sprintf "malformed frame: %s" e)))

(* --- incremental decoder ------------------------------------------- *)

type decoder = { mutable buf : Bytes.t; mutable len : int }

let decoder () = { buf = Bytes.create 4096; len = 0 }

let feed d b n =
  if d.len + n > Bytes.length d.buf then begin
    let cap = ref (max 4096 (Bytes.length d.buf)) in
    while d.len + n > !cap do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end;
  Bytes.blit b 0 d.buf d.len n;
  d.len <- d.len + n

let next d =
  if d.len < 4 then `Awaiting
  else
    let flen = decode_prefix d.buf 0 in
    if flen < 0 || flen > max_frame then
      `Error (Printf.sprintf "frame of %d bytes exceeds limit" flen)
    else if d.len < 4 + flen then `Awaiting
    else begin
      (* parsed in place: the tree shares no bytes with [d.buf], so
         the blit below cannot reach it *)
      let parsed = Json.of_substring (Bytes.unsafe_to_string d.buf) 4 flen in
      let rest = d.len - 4 - flen in
      Bytes.blit d.buf (4 + flen) d.buf 0 rest;
      d.len <- rest;
      match parsed with
      | Ok j -> `Frame j
      | Error e -> `Error (Printf.sprintf "malformed frame: %s" e)
    end
