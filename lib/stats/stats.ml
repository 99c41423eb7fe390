type summary = {
  count : int;
  mean : float;
  stddev : float;
  stderr : float;
  min : float;
  max : float;
  ci95_low : float;
  ci95_high : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty";
  let m = mean xs in
  let sd = sqrt (variance xs) in
  let se = if n < 2 then 0.0 else sd /. sqrt (float_of_int n) in
  let mn = Array.fold_left Float.min xs.(0) xs in
  let mx = Array.fold_left Float.max xs.(0) xs in
  {
    count = n;
    mean = m;
    stddev = sd;
    stderr = se;
    min = mn;
    max = mx;
    ci95_low = m -. (1.959964 *. se);
    ci95_high = m +. (1.959964 *. se);
  }

let summarize_ints xs = summarize (Array.map float_of_int xs)

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Stats.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of [0, 1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* Float.compare is a total order that places nan first; one check on
     the head rejects it everywhere. *)
  if Float.is_nan sorted.(0) then invalid_arg "Stats.quantile: nan sample";
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = quantile xs 0.5

type histogram = { bounds : float array; counts : int array }

let histogram ~bins xs =
  if bins < 1 then invalid_arg "Stats.histogram: bins must be >= 1";
  if Array.length xs = 0 then invalid_arg "Stats.histogram: empty";
  let lo = Array.fold_left Float.min xs.(0) xs in
  let hi = Array.fold_left Float.max xs.(0) xs in
  let hi = if hi = lo then lo +. 1.0 else hi in
  let width = (hi -. lo) /. float_of_int bins in
  let bounds = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let idx = int_of_float ((x -. lo) /. width) in
      let idx = if idx >= bins then bins - 1 else if idx < 0 then 0 else idx in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  { bounds; counts }

(* Two-sided 97.5% Student-t critical values. For the handful-of-samples
   regime of timing samples, the normal 1.96 badly under-covers
   (n = 3 would claim a ±ci95 less than half the honest band); the step
   table errs high between tabulated points, never low. *)
let t95 df =
  if df <= 0 then 0.0
  else if df = 1 then 12.706
  else if df = 2 then 4.303
  else if df = 3 then 3.182
  else if df = 4 then 2.776
  else if df = 5 then 2.571
  else if df = 6 then 2.447
  else if df = 7 then 2.365
  else if df = 8 then 2.306
  else if df = 9 then 2.262
  else if df <= 12 then 2.228
  else if df <= 15 then 2.179
  else if df <= 20 then 2.131
  else if df <= 30 then 2.086
  else if df <= 60 then 2.042
  else 1.959964

let ci95_halfwidth s = t95 (s.count - 1) *. s.stderr

let pooled_halfwidth a b = sqrt ((a *. a) +. (b *. b))

let means_differ ~mean_a ~half_a ~mean_b ~half_b =
  Float.abs (mean_b -. mean_a) > pooled_halfwidth half_a half_b

let pp_summary fmt s =
  Format.fprintf fmt "%.3f +/- %.3f [%.3f, %.3f] (n=%d)" s.mean s.stderr s.min s.max
    s.count
