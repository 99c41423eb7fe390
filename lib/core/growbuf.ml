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

let push_float (b : float t) x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let concat zero buf parts =
  let out = Array.make (List.fold_left (fun acc p -> acc + (buf p).len) 0 parts) zero in
  let pos = ref 0 in
  List.iter
    (fun p ->
      let b = buf p in
      Array.blit b.data 0 out !pos b.len;
      pos := !pos + b.len;
      b.data <- [||];
      b.len <- 0)
    parts;
  out
