include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* one multiply and shift, so every key bit reaches the bucket bits *)
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 32
end)
