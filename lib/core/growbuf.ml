type 'a t = { mutable data : 'a array; mutable len : int; zero : 'a }

let create hint zero = { data = Array.make (max hint 16) zero; len = 0; zero }

let grow b =
  let d = Array.make (2 * b.len) b.zero in
  Array.blit b.data 0 d 0 b.len;
  b.data <- d

(* Monomorphic so that the store compiles to a plain unboxed write. *)
let push_int (b : int t) x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1
