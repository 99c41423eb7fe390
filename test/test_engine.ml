(* Tests for the execution engine, schedulers and trace machinery. *)

open Stabcore

let test_run_reaches_terminal () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r = Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init:[| 1; 1 |] in
  Alcotest.(check bool) "stops at terminal" true (r.Engine.stop = Engine.Terminal);
  Alcotest.(check bool) "final is terminal" true (Protocol.is_terminal p r.Engine.final);
  Alcotest.(check int) "one step suffices" 1 r.Engine.steps

let test_run_converged_stop () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 5 in
  let r =
    Engine.run ~stop_on:Fixtures.coin_spec ~max_steps:10_000 rng p
      (Scheduler.central_first ()) ~init:[| 0 |]
  in
  Alcotest.(check bool) "converged" true (r.Engine.stop = Engine.Converged);
  Alcotest.(check int) "final state 2" 2 r.Engine.final.(0)

let test_run_exhausted () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  let rng = Stabrng.Rng.create 2 in
  let init = Stabalgo.Token_ring.legitimate_config ~n:5 in
  (* A legitimate token ring never terminates: budget must bound it. *)
  let r = Engine.run ~max_steps:30 rng p (Scheduler.central_first ()) ~init in
  Alcotest.(check bool) "exhausted" true (r.Engine.stop = Engine.Exhausted);
  Alcotest.(check int) "steps = budget" 30 r.Engine.steps

let test_run_records_trace () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r = Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init:[| 1; 1 |] in
  Alcotest.(check int) "one event" 1 (List.length r.Engine.trace.Engine.events);
  let e = List.hd r.Engine.trace.Engine.events in
  Alcotest.(check (list (pair int string))) "fired labels" [ (0, "bump") ] e.Engine.fired

let test_run_no_record () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r =
    Engine.run ~record:false ~max_steps:10 rng p (Scheduler.central_first ())
      ~init:[| 1; 1 |]
  in
  Alcotest.(check int) "no events" 0 (List.length r.Engine.trace.Engine.events);
  Alcotest.(check int) "still stepped" 1 r.Engine.steps

let test_run_does_not_mutate_init () =
  let p = Fixtures.mod3_protocol () in
  let init = [| 1; 1 |] in
  let rng = Stabrng.Rng.create 1 in
  ignore (Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init);
  Alcotest.(check (array int)) "init preserved" [| 1; 1 |] init

let test_convergence_time () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 3 in
  (match
     Engine.convergence_cost ~max_steps:10_000 rng p (Scheduler.central_first ())
       Fixtures.coin_spec ~init:[| 0 |]
   with
  | Some (t, _) -> Alcotest.(check bool) "positive time" true (t >= 1)
  | None -> Alcotest.fail "should converge");
  (* Already-legitimate start takes zero steps. *)
  match
    Engine.convergence_cost ~max_steps:10 rng p (Scheduler.central_first ())
      Fixtures.coin_spec ~init:[| 2 |]
  with
  | Some (0, _) -> ()
  | other -> Alcotest.failf "expected Some 0, got %s"
               (match other with None -> "None" | Some (t, _) -> string_of_int t)

let test_replay () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0; 1 ] ] in
  Alcotest.(check (array int)) "replayed step" [| 2; 2 |] (Engine.final_config trace)

let test_replay_validation () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.check_raises "disabled process"
    (Invalid_argument "Engine.replay: process 0 not enabled at scripted step") (fun () ->
      ignore (Engine.replay p ~init:[| 0; 1 |] [ [ 0 ] ]));
  Alcotest.check_raises "empty step" (Invalid_argument "Engine.replay: empty step")
    (fun () -> ignore (Engine.replay p ~init:[| 1; 1 |] [ [] ]));
  let randomized = Fixtures.coin_protocol () in
  Alcotest.check_raises "randomized protocol"
    (Invalid_argument "Engine.replay: protocol is randomized; replay requires determinism")
    (fun () -> ignore (Engine.replay randomized ~init:[| 0 |] [ [ 0 ] ]))

let test_configs_and_final () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  Alcotest.(check int) "two configs" 2 (List.length (Engine.configs trace));
  Alcotest.(check (array int)) "final" [| 2; 1 |] (Engine.final_config trace);
  let empty = Engine.replay p ~init:[| 0; 1 |] [] in
  Alcotest.(check (array int)) "final of empty trace" [| 0; 1 |] (Engine.final_config empty)

(* Scheduler behaviours *)

let test_central_random_picks_one () =
  let s = Scheduler.central_random () in
  let rng = Stabrng.Rng.create 1 in
  for _ = 1 to 100 do
    match s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 3; 5; 9 ] with
    | [ p ] -> Alcotest.(check bool) "member" true (List.mem p [ 3; 5; 9 ])
    | l -> Alcotest.failf "central chose %d processes" (List.length l)
  done

let test_distributed_random_subsets () =
  let s = Scheduler.distributed_random () in
  let rng = Stabrng.Rng.create 2 in
  for _ = 1 to 200 do
    let chosen = s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1; 2; 3 ] in
    Alcotest.(check bool) "non-empty" true (chosen <> []);
    Alcotest.(check bool) "subset" true (List.for_all (fun p -> List.mem p [ 1; 2; 3 ]) chosen)
  done

let test_synchronous_takes_all () =
  let s = Scheduler.synchronous () in
  let rng = Stabrng.Rng.create 3 in
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ]
    (s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1; 2; 3 ])

let test_round_robin_cycles () =
  let s = Scheduler.round_robin () in
  let rng = Stabrng.Rng.create 4 in
  let pick enabled = s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled in
  Alcotest.(check (list int)) "first" [ 0 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "second" [ 1 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "third" [ 2 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "wraps" [ 0 ] (pick [ 0; 1; 2 ])

let test_adversary_validation () =
  let bad = Scheduler.adversary ~name:"bad" (fun _ _ -> [ 99 ]) in
  let rng = Stabrng.Rng.create 5 in
  Alcotest.check_raises "invalid choice"
    (Invalid_argument "bad: adversary chose a disabled process") (fun () ->
      ignore (bad.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1 ]));
  let empty = Scheduler.adversary ~name:"empty" (fun _ _ -> []) in
  Alcotest.check_raises "empty choice"
    (Invalid_argument "empty: adversary chose the empty set") (fun () ->
      ignore (empty.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1 ]))

let test_adversary_sees_config () =
  let s =
    Scheduler.adversary ~name:"config-driven" (fun cfg enabled ->
        List.filter (fun p -> cfg.(p) = 1) enabled)
  in
  let rng = Stabrng.Rng.create 6 in
  Alcotest.(check (list int)) "driven by cfg" [ 1 ]
    (s.Scheduler.choose rng ~step:0 ~cfg:[| 0; 1 |] ~enabled:[ 0; 1 ])

(* Trace rendering *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_trace_pp () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  let rendered = Trace.to_string p trace in
  Alcotest.(check bool) "mentions initial config" true (contains ~needle:"[1 1]" rendered);
  Alcotest.(check bool) "mentions fired action" true (contains ~needle:"0:bump" rendered);
  Alcotest.(check bool) "mentions successor" true (contains ~needle:"[2 1]" rendered)

let suite =
  [
    Alcotest.test_case "run to terminal" `Quick test_run_reaches_terminal;
    Alcotest.test_case "run converged" `Quick test_run_converged_stop;
    Alcotest.test_case "run exhausted" `Quick test_run_exhausted;
    Alcotest.test_case "run records trace" `Quick test_run_records_trace;
    Alcotest.test_case "run without recording" `Quick test_run_no_record;
    Alcotest.test_case "run preserves init" `Quick test_run_does_not_mutate_init;
    Alcotest.test_case "convergence_time" `Quick test_convergence_time;
    Alcotest.test_case "replay" `Quick test_replay;
    Alcotest.test_case "replay validation" `Quick test_replay_validation;
    Alcotest.test_case "configs/final" `Quick test_configs_and_final;
    Alcotest.test_case "central random" `Quick test_central_random_picks_one;
    Alcotest.test_case "distributed random" `Quick test_distributed_random_subsets;
    Alcotest.test_case "synchronous" `Quick test_synchronous_takes_all;
    Alcotest.test_case "round robin" `Quick test_round_robin_cycles;
    Alcotest.test_case "adversary validation" `Quick test_adversary_validation;
    Alcotest.test_case "adversary sees config" `Quick test_adversary_sees_config;
    Alcotest.test_case "trace pp" `Quick test_trace_pp;
  ]

let test_trace_pp_compact_and_event () =
  (* One line per configuration; a step's line shows the fired
     (process:action) pairs on the arrow into its successor. *)
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  match String.split_on_char '\n' (Trace.to_string p trace) with
  | [ init; step ] ->
    Alcotest.(check bool) "initial line" true (contains ~needle:"[1 1]" init);
    Alcotest.(check bool) "step's arrow" true (contains ~needle:"--{0:bump}--> [2 1]" step)
  | lines -> Alcotest.failf "expected two lines, got %d" (List.length lines)

let extra_suite =
  [ Alcotest.test_case "trace compact/event pp" `Quick test_trace_pp_compact_and_event ]

let suite = suite @ extra_suite
