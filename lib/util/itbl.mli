(** Hashtables over [int] keys that hash and compare without the
    polymorphic primitives: op ids, constants and packed keys on the
    merge-attempt path. *)

include Hashtbl.S with type key = int
