(* Streaming distributions: every sample retained, one single-writer
   cell per (dist, domain) exactly like Obs.Counter; count, moments and
   quantiles are read off the merged samples. The dark path is one
   atomic load and a branch, shared with the counter/span guard. *)

type cell = { mutable samples : floatarray; mutable len : int }

type t = {
  dname : string;
  mu : Mutex.t;
  cells : cell list ref;
  key : cell Domain.DLS.key;
}

let registry_mu = Mutex.create ()
let registry : t list ref = ref []

let new_cell () = { samples = Float.Array.create 0; len = 0 }

let make dname =
  let mu = Mutex.create () in
  let cells = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let cell = new_cell () in
        Mutex.protect mu (fun () -> cells := cell :: !cells);
        cell)
  in
  let t = { dname; mu; cells; key } in
  Mutex.protect registry_mu (fun () -> registry := t :: !registry);
  t

let push cell x =
  if cell.len = Float.Array.length cell.samples then begin
    let grown = Float.Array.create (max 16 (2 * cell.len)) in
    Float.Array.blit cell.samples 0 grown 0 cell.len;
    cell.samples <- grown
  end;
  Float.Array.set cell.samples cell.len x;
  cell.len <- cell.len + 1

let record t x = if Obs.on () then push (Domain.DLS.get t.key) x

let record_int t k = if Obs.on () then record t (float_of_int k)

let cells_of t = Mutex.protect t.mu (fun () -> !(t.cells))

let count t = List.fold_left (fun acc c -> acc + c.len) 0 (cells_of t)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let merged_samples cells total =
  let all = Float.Array.create total in
  let off = ref 0 in
  List.iter
    (fun c ->
      Float.Array.blit c.samples 0 all !off c.len;
      off := !off + c.len)
    cells;
  Float.Array.sort Float.compare all;
  all

(* Same interpolation between order statistics as
   Stabstats.Stats.quantile, so the two agree on shared samples. *)
let quantile_sorted sorted q =
  let n = Float.Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then Float.Array.get sorted lo
  else begin
    let frac = pos -. float_of_int lo in
    (Float.Array.get sorted lo *. (1.0 -. frac)) +. (Float.Array.get sorted hi *. frac)
  end

(* Two passes over the merged samples, as Stabstats.Stats.summarize
   takes them: the mean, then the squared deviations from it. *)
let summary t =
  let cells = cells_of t in
  let n = List.fold_left (fun acc c -> acc + c.len) 0 cells in
  if n = 0 then None
  else begin
    let sorted = merged_samples cells n in
    let mean = Float.Array.fold_left ( +. ) 0.0 sorted /. float_of_int n in
    let stddev =
      if n < 2 then 0.0
      else
        let m2 = Float.Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 sorted in
        sqrt (m2 /. float_of_int (n - 1))
    in
    Some
      {
        count = n;
        mean;
        stddev;
        min = Float.Array.get sorted 0;
        max = Float.Array.get sorted (n - 1);
        p50 = quantile_sorted sorted 0.5;
        p95 = quantile_sorted sorted 0.95;
        p99 = quantile_sorted sorted 0.99;
      }
  end

let all () = List.rev (Mutex.protect registry_mu (fun () -> !registry))

let snapshot () =
  List.filter_map (fun t -> Option.map (fun s -> (t.dname, s)) (summary t)) (all ())

let reset_all () = List.iter (fun t -> List.iter (fun c -> c.len <- 0) (cells_of t)) (all ())

let engine_run_steps = make "engine.run.steps"
let checker_out_degree = make "checker.out-degree"
let markov_solve_residual = make "markov.solve.residual"
