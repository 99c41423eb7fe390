(* Tests for the statistics substrate. *)

open Stabstats

let check_float = Alcotest.(check (float 1e-9))

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let test_variance () =
  (* mean 3, squared deviations 4 + 1 + 0 + 9 = 14, n - 1 = 3 *)
  check_float "variance" (14.0 /. 3.0)
    ((Stats.summarize [| 1.0; 2.0; 3.0; 6.0 |]).Stats.stddev ** 2.0);
  check_float "single sample" 0.0 (Stats.summarize [| 5.0 |]).Stats.stddev

let test_summarize () =
  let s = Stats.summarize [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "count" 8 s.Stats.count;
  check_float "mean" 5.0 s.Stats.mean;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 9.0 s.Stats.max;
  Alcotest.(check bool) "ci contains mean" true
    (s.Stats.ci95_low <= s.Stats.mean && s.Stats.mean <= s.Stats.ci95_high)

let test_summarize_single () =
  let s = Stats.summarize [| 3.0 |] in
  check_float "mean" 3.0 s.Stats.mean;
  check_float "stderr" 0.0 s.Stats.stderr;
  check_float "ci low = mean" 3.0 s.Stats.ci95_low

let test_summarize_ints () =
  let s = Stats.summarize_ints [| 1; 2; 3 |] in
  check_float "mean" 2.0 s.Stats.mean

let test_quantile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.quantile xs 0.5);
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 5.0 (Stats.quantile xs 1.0);
  check_float "q25" 2.0 (Stats.quantile xs 0.25);
  (* Interpolation between order statistics. *)
  check_float "q of two" 1.5 (Stats.quantile [| 1.0; 2.0 |] 0.5)

let test_quantile_unsorted_input () =
  check_float "median of unsorted" 3.0 (Stats.quantile [| 5.0; 1.0; 3.0; 2.0; 4.0 |] 0.5)

let test_quantile_validation () =
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q out of [0, 1]") (fun () ->
      ignore (Stats.quantile [| 1.0 |] 1.5))

let test_quantile_rejects_nan () =
  Alcotest.check_raises "nan sample" (Invalid_argument "Stats.quantile: nan sample")
    (fun () -> ignore (Stats.quantile [| 1.0; Float.nan; 2.0 |] 0.5))

let test_quantile_total_order () =
  (* Mixed signs, zeroes, and infinities must sort totally — the old
     polymorphic compare path was one structural-equality quirk away
     from a wrong order statistic. *)
  check_float "median with infinities" 0.0
    (Stats.quantile [| Float.infinity; -1.0; 0.0; 1.0; Float.neg_infinity |] 0.5);
  check_float "max is inf" Float.infinity
    (Stats.quantile [| Float.infinity; 1.0 |] 1.0)

let qcheck_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantile is monotone in q"
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let arr = Array.of_list xs in
      Stats.quantile arr 0.25 <= Stats.quantile arr 0.75)

let qcheck_mean_bounds =
  QCheck.Test.make ~count:200 ~name:"mean lies within min..max"
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-50.0) 50.0))
    (fun xs ->
      let s = Stats.summarize (Array.of_list xs) in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize single" `Quick test_summarize_single;
    Alcotest.test_case "summarize ints" `Quick test_summarize_ints;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "quantile unsorted" `Quick test_quantile_unsorted_input;
    Alcotest.test_case "quantile validation" `Quick test_quantile_validation;
    Alcotest.test_case "quantile rejects nan" `Quick test_quantile_rejects_nan;
    Alcotest.test_case "quantile total order" `Quick test_quantile_total_order;
    Qcheck_seeded.to_alcotest qcheck_quantile_monotone;
    Qcheck_seeded.to_alcotest qcheck_mean_bounds;
  ]
