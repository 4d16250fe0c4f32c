(** Two-tier content-addressed cache for engine results.

    Keys are digests (MD5 hex of normalized content — see
    {!Engine.request_digest} and {!Hlts_dfg.Dfg.digest}) namespaced by a
    [kind] string; a cache never invalidates by time, only by key: if
    any input byte changes, the digest changes and the old entry is
    simply never asked for again.

    Tier 1 is an in-memory LRU holding arbitrary values (including
    unmarshalable ones — synthesized outcomes with memoized views live
    only here). Tier 2 is an on-disk store under a directory (default
    [$HLTS_CACHE_DIR], else [~/.cache/hlts]) holding marshalled values;
    every file carries a header

    {v hlts-cache/2 <kind> <ocaml-version> <payload-md5> <payload-length> v}

    which is verified on every read — a bad magic, version skew, length
    or checksum mismatch means the entry is corrupt or stale and is
    {e evicted} (unlinked) rather than deserialized blindly. Writes are
    atomic (temp file + rename), so a crashed writer leaves no
    half-entry behind.

    Type safety of the disk tier rests on the namespace discipline:
    each [kind] must be read and written with exactly one type. The
    engine is the only writer and upholds this. The magic names the
    payload format: it is bumped whenever a kind's type changes, so an
    entry of an older format is evicted as corrupt instead of being
    unmarshalled as the new type. [/2] made a [result] entry the
    engine's sealed answer — response, journal and both their digests
    (an old store recomputes each answer once). *)

type t

val default_dir : unit -> string
(** [$HLTS_CACHE_DIR] if set and non-empty, else [$HOME/.cache/hlts]
    (falling back to [.cache/hlts] under the current directory when
    [HOME] is unset). *)

val create : ?dir:string option -> ?mem_entries:int -> unit -> t
(** [create ()] caches in memory only. [~dir:(Some d)] adds the disk
    tier rooted at [d] (created on first store). [mem_entries] bounds
    the LRU (default 512 entries; least-recently-used falls out). *)

val dir : t -> string option

(** {1 Typed access}

    [find] promotes a disk hit into the memory tier; [store] writes
    both tiers ([mem_only] skips the disk — for values that cannot or
    should not be marshalled). *)

val find : t -> kind:string -> string -> 'a option
val store : t -> ?mem_only:bool -> kind:string -> string -> 'a -> unit

(** {1 Statistics} *)

type stats = {
  mem_entries : int;
  mem_hits : int;
  mem_misses : int;       (** misses of the memory tier (disk may hit) *)
  disk_hits : int;
  disk_misses : int;
  disk_errors : int;      (** corrupt/stale entries detected and evicted *)
}

val stats : t -> stats

(** {1 Disk-store maintenance} (for [hlts cache])

    These operate on a directory, not a [t], so the CLI can inspect a
    store no process currently owns. *)

type scan = {
  entries : int;
  bytes : int;            (** header + payload bytes of valid entries *)
  kinds : (string * int) list;  (** valid entries per kind, sorted *)
  corrupt : string list;  (** offending paths, evicted during the scan *)
}

val scan_dir : string -> scan
(** Walks every entry file (regular files in the per-kind
    subdirectories; top-level files such as a daemon socket are never
    touched), validates each header and checksum, and unlinks the
    failures. A missing directory scans as empty. *)

val clear_dir : string -> int
(** Removes every entry file under the per-kind subdirectories,
    whatever its state; returns the number removed. Returns 0 for a
    missing directory. *)
