(* SplitMix64 is used to expand seeds and to split streams; xoshiro256++
   generates the bulk output. Reference: Blackman & Vigna, public domain. *)

(* The four xoshiro words live in one 32-byte buffer, read and written
   through the unboxed 64-bit bytes primitives. A record of four
   [mutable int64] fields boxes every store: without flambda a draw
   allocated 21 to 26 minor words, and now [int] and [bool] allocate
   none and [float] only its result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* The [k]th SplitMix64 output from counter [c]: advance the counter
   [k] times, mix it out. *)
let splitmix c k = mix64 (Int64.add c (Int64.mul (Int64.of_int k) golden_gamma))

let of_counter c =
  let s0 = splitmix c 1 and s1 = splitmix c 2 and s2 = splitmix c 3 and s3 = splitmix c 4 in
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then None else Some (make s0 s1 s2 s3)

(* xoshiro must not start from the all-zero state. *)
let seed_state seed =
  match of_counter (Int64.of_int seed) with
  | Some t -> t
  | None -> make golden_gamma (mix64 golden_gamma) 1L 2L

let create seed = seed_state seed

let copy = Bytes.copy

let[@inline] rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* Inlined into every caller below, so the 64-bit result stays
   unboxed up to the int, float or bool that the caller returns. *)
let[@inline] bits64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 tmp in
  let s3 = rotl s3 45 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  result

let split t =
  (* Draw 64 bits, remix them through SplitMix64 to seed the child. *)
  match of_counter (bits64 t) with Some child -> child | None -> seed_state 1

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 34)

(* Rejection sampling for exact uniformity: over 30-bit draws for
   bounds up to 2^30, over 62-bit draws above. *)
let rec int30 t bound =
  let r = bits30 t in
  let v = r mod bound in
  if r - v > (1 lsl 30) - bound then int30 t bound else v

let rec int62 t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  let v = r mod bound in
  if r - v > (1 lsl 62) - bound then int62 t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then int30 t bound else int62 t bound

let float t =
  let mant = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  mant *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t < p

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let choice_list t items =
  match items with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ -> List.nth items (int t (List.length items))

let pick_weighted t dist =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 dist in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: non-positive total weight";
  let target = float t *. total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.pick_weighted: empty distribution"
    | [ (v, _) ] -> v
    | (v, w) :: rest -> if acc +. w > target then v else go (acc +. w) rest
  in
  go 0.0 dist

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let[@tail_mod_cons] rec subset t = function
  | [] -> []
  | x :: rest -> if bool t then x :: subset t rest else subset t rest

(* Resample until non-empty: uniform over the 2^n - 1 non-empty
   subsets because each subset is equally likely each round. *)
let rec resample_nonempty t items =
  match subset t items with [] -> resample_nonempty t items | chosen -> chosen

let nonempty_subset t items =
  match items with
  | [] -> invalid_arg "Rng.nonempty_subset: empty list"
  | [ x ] -> [ x ]
  | _ -> resample_nonempty t items
