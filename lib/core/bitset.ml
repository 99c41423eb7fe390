type t = { bytes : Bytes.t; length : int }

let create length =
  if length < 0 then invalid_arg "Bitset.create: negative length";
  { bytes = Bytes.make ((length + 7) / 8) '\000'; length }

let check t i op =
  if i < 0 || i >= t.length then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of bounds [0,%d)" op i t.length)

let mem t i =
  check t i "mem";
  Char.code (Bytes.unsafe_get t.bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i "set";
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bytes byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bytes byte) lor (1 lsl (i land 7))))

let clear t i =
  check t i "clear";
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bytes byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bytes byte) land lnot (1 lsl (i land 7)) land 0xff))
