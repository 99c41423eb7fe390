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

let pp_summary fmt s =
  Format.fprintf fmt "%.3f +/- %.3f [%.3f, %.3f] (n=%d)" s.mean s.stderr s.min s.max
    s.count
