(* Tests for the complexity metrics added on top of the core engine:
   asynchronous rounds, best/worst-case convergence steps, convergence
   radius histograms, absorption probabilities and transient
   distributions. *)

open Stabcore

let check_float = Alcotest.(check (float 1e-7))

(* --- rounds --- *)

let test_rounds_equal_steps_when_single_frontier () =
  (* Token ring from a legitimate configuration: exactly one enabled
     process at all times, so every step completes a round. *)
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 1 in
  let r =
    Engine.run ~record:false ~max_steps:20 rng p (Scheduler.central_random ())
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  Alcotest.(check int) "rounds = steps" r.Engine.steps r.Engine.rounds

let test_rounds_zero_under_starvation () =
  (* flip2 with the central-first scheduler: process 1 is enabled
     forever but never fires, so the first round never completes. *)
  let p = Fixtures.flip2 () in
  let rng = Stabrng.Rng.create 2 in
  let r =
    Engine.run ~record:false ~max_steps:25 rng p (Scheduler.central_first ())
      ~init:[| false; false |]
  in
  Alcotest.(check int) "25 steps" 25 r.Engine.steps;
  Alcotest.(check int) "no completed round" 0 r.Engine.rounds

let test_rounds_with_round_robin () =
  (* flip2 under round robin: both processes fire in every window of
     two steps, so rounds = steps / 2. *)
  let p = Fixtures.flip2 () in
  let rng = Stabrng.Rng.create 3 in
  let r =
    Engine.run ~record:false ~max_steps:24 rng p (Scheduler.round_robin ())
      ~init:[| false; false |]
  in
  Alcotest.(check int) "12 rounds in 24 steps" 12 r.Engine.rounds

let test_rounds_synchronous () =
  (* Synchronously every enabled process fires: one round per step. *)
  let p = Fixtures.flip2 () in
  let rng = Stabrng.Rng.create 4 in
  let r =
    Engine.run ~record:false ~max_steps:10 rng p (Scheduler.synchronous ())
      ~init:[| false; false |]
  in
  Alcotest.(check int) "rounds = steps" r.Engine.steps r.Engine.rounds

let test_convergence_cost () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 5 in
  match
    Engine.convergence_cost ~max_steps:1_000 rng p (Scheduler.central_first ())
      Fixtures.coin_spec ~init:[| 0 |]
  with
  | Some (steps, rounds) ->
    Alcotest.(check bool) "rounds <= steps" true (rounds <= steps);
    Alcotest.(check bool) "steps positive" true (steps >= 1)
  | None -> Alcotest.fail "should converge"

let test_montecarlo_reports_rounds () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 6 in
  let r =
    Montecarlo.estimate ~runs:50 ~max_steps:10_000 rng p Scheduler.central_random
      (Stabalgo.Token_ring.spec ~n)
  in
  match (r.Montecarlo.summary, r.Montecarlo.rounds_summary) with
  | Some s, Some rs ->
    Alcotest.(check bool) "mean rounds <= mean steps" true
      (rs.Stabstats.Stats.mean <= s.Stabstats.Stats.mean +. 1e-9)
  | _ -> Alcotest.fail "expected summaries"

(* Each run gets its own daemon: a round-robin cursor left behind by
   one run must not shorten the next (a shared cursor gave 3 1 1 3 1 1
   here). *)
let test_montecarlo_round_robin_per_run () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let r =
    Montecarlo.estimate
      ~init:(fun _ -> [| 0; 1; 0; 0; 0 |])
      ~runs:6 ~max_steps:1_000 (Stabrng.Rng.create 1) p Scheduler.round_robin
      (Stabalgo.Token_ring.spec ~n)
  in
  Alcotest.(check (array int)) "independent runs" (Array.make 6 3) r.Montecarlo.times

(* --- best/worst case convergence --- *)

let countdown_space () =
  let inc : int Protocol.action =
    {
      label = "inc";
      guard = (fun cfg p -> cfg.(p) < 3);
      result = (fun cfg p -> [ (cfg.(p) + 1, 1.0) ]);
    }
  in
  let p : int Protocol.t =
    {
      Protocol.name = "countdown";
      graph = Stabgraph.Graph.chain 1;
      domain = (fun _ -> [ 0; 1; 2; 3 ]);
      actions = [ inc ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Central in
  let legitimate = Statespace.legitimate_set space (Spec.make ~name:"at-3" (fun c -> c.(0) = 3)) in
  (space, g, legitimate)

let test_best_case_steps () =
  let space, g, legitimate = countdown_space () in
  let dist = Checker.best_case_steps space g ~legitimate in
  Alcotest.(check (array int)) "distances" [| 3; 2; 1; 0 |] dist

let test_worst_case_steps () =
  let space, g, legitimate = countdown_space () in
  match Checker.worst_case_steps space g ~legitimate with
  | Some values -> Alcotest.(check (array int)) "worst = best here" [| 3; 2; 1; 0 |] values
  | None -> Alcotest.fail "countdown certainly converges"

let test_worst_case_unbounded_for_weak () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Distributed in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  Alcotest.(check bool) "unbounded" true
    (Checker.worst_case_steps space g ~legitimate = None)

let test_best_case_unreachable_marked () =
  (* dead-end protocol: state 0 terminal outside L. *)
  let stuck : int Protocol.t =
    {
      Protocol.name = "stuck";
      graph = Stabgraph.Graph.chain 1;
      domain = (fun _ -> [ 0; 1 ]);
      actions =
        [
          {
            label = "spin";
            guard = (fun cfg p -> cfg.(p) = 1);
            result = (fun _ _ -> [ (1, 1.0) ]);
          };
        ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  let space = Statespace.build stuck in
  let g = Checker.expand space Statespace.Central in
  let legitimate = [| false; true |] in
  let dist = Checker.best_case_steps space g ~legitimate in
  Alcotest.(check int) "unreachable is max_int" max_int dist.(0);
  let histogram = Checker.convergence_radius_histogram space g ~legitimate in
  Alcotest.(check (list (pair int int))) "histogram buckets" [ (-1, 1); (0, 1) ] histogram;
  (* The outside-set DFS alone gives the dead end a finite height of 0;
     only the terminal check rules the worst case out. *)
  Alcotest.(check bool) "dead end has no worst case" true
    (Checker.worst_case_steps space g ~legitimate = None)

let test_radius_histogram_sums_to_count () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Distributed in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let histogram = Checker.convergence_radius_histogram space g ~legitimate in
  Alcotest.(check int) "total configs"
    (Statespace.count space)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 histogram)

let test_worst_case_matches_dijkstra_selfstab () =
  (* Dijkstra n=3, central: certainly converges; the worst-case value
     must dominate the best case everywhere. *)
  let n = 3 in
  let p = Stabalgo.Dijkstra_kstate.make ~n () in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Central in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Dijkstra_kstate.spec ~n) in
  let best = Checker.best_case_steps space g ~legitimate in
  match Checker.worst_case_steps space g ~legitimate with
  | None -> Alcotest.fail "dijkstra converges certainly"
  | Some worst ->
    Array.iteri
      (fun c b ->
        if worst.(c) < b then Alcotest.failf "worst < best at config %d" c)
      best

(* --- absorption probabilities / transient distributions --- *)

let test_absorption_gamblers_ruin () =
  (* Fair ruin on 0..4 with both ends absorbing, target = {4}:
     P(hit 4 from i) = i / 4. *)
  let chain =
    Markov.of_rows
      [|
        [ (0, 1.0) ];
        [ (0, 0.5); (2, 0.5) ];
        [ (1, 0.5); (3, 0.5) ];
        [ (2, 0.5); (4, 0.5) ];
        [ (4, 1.0) ];
      |]
  in
  let probs =
    Markov.absorption_probabilities chain
      ~legitimate:[| false; false; false; false; true |]
  in
  check_float "p0" 0.0 probs.(0);
  check_float "p1" 0.25 probs.(1);
  check_float "p2" 0.5 probs.(2);
  check_float "p3" 0.75 probs.(3);
  check_float "p4" 1.0 probs.(4)

let test_absorption_prob1_consistency () =
  (* When convergence holds with probability 1, all probabilities are 1. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let chain = Markov.of_space space Markov.Central_uniform in
  let probs = Markov.absorption_probabilities chain ~legitimate in
  Array.iter (fun pr -> if Float.abs (pr -. 1.0) > 1e-9 then Alcotest.failf "prob %f" pr) probs

let test_transient_distribution () =
  let chain = Markov.of_rows [| [ (1, 1.0) ]; [ (0, 0.5); (1, 0.5) ] |] in
  let d1 = Markov.transient_distribution chain ~init:[| 1.0; 0.0 |] ~steps:1 in
  check_float "all mass to 1" 1.0 d1.(1);
  let d2 = Markov.transient_distribution chain ~init:[| 1.0; 0.0 |] ~steps:2 in
  check_float "half back" 0.5 d2.(0);
  check_float "half stays" 0.5 d2.(1)

let test_transient_distribution_validation () =
  let chain = Markov.of_rows [| [ (0, 1.0) ] |] in
  Alcotest.check_raises "not a distribution"
    (Invalid_argument "Markov.transient_distribution: not a distribution") (fun () ->
      ignore (Markov.transient_distribution chain ~init:[| 0.5 |] ~steps:1));
  (* NaN is neither negative nor, summed, more than 1e-9 away from 1,
     so it must be rejected as non-finite; an infinite entry likewise. *)
  let two_state = Markov.of_rows [| [ (1, 1.0) ]; [ (0, 0.5); (1, 0.5) ] |] in
  List.iter
    (fun init ->
      Alcotest.check_raises "non-finite entry"
        (Invalid_argument "Markov.transient_distribution: not a distribution") (fun () ->
          ignore (Markov.transient_distribution two_state ~init ~steps:1)))
    [ [| Float.nan; 1.0 |]; [| 1.0; Float.nan |]; [| Float.infinity; 1.0 |] ]

let test_mass_in () =
  check_float "mass" 0.5 (Markov.mass_in [| 0.3; 0.5; 0.2 |] [| true; false; true |])

let test_transient_mass_monotone_toward_closed_target () =
  (* For a CLOSED legitimate set, stabilized mass never decreases. *)
  let n = 4 in
  let tp = Stabcore.Transformer.randomize (Stabalgo.Token_ring.make ~n) in
  let spec = Transformer.lift_spec (Stabalgo.Token_ring.spec ~n) in
  let space = Statespace.build tp in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Sync in
  let states = Markov.states chain in
  let uniform = Array.make states (1.0 /. float_of_int states) in
  let previous = ref 0.0 in
  for k = 0 to 10 do
    let dist = Markov.transient_distribution chain ~init:uniform ~steps:k in
    let mass = Markov.mass_in dist legitimate in
    if mass +. 1e-9 < !previous then Alcotest.failf "mass decreased at step %d" k;
    previous := mass
  done;
  Alcotest.(check bool) "some progress by step 10" true (!previous > 0.5)

let suite =
  [
    Alcotest.test_case "rounds = steps (single frontier)" `Quick test_rounds_equal_steps_when_single_frontier;
    Alcotest.test_case "rounds 0 under starvation" `Quick test_rounds_zero_under_starvation;
    Alcotest.test_case "rounds with round robin" `Quick test_rounds_with_round_robin;
    Alcotest.test_case "rounds synchronous" `Quick test_rounds_synchronous;
    Alcotest.test_case "convergence cost" `Quick test_convergence_cost;
    Alcotest.test_case "montecarlo rounds" `Quick test_montecarlo_reports_rounds;
    Alcotest.test_case "montecarlo round-robin per run" `Quick
      test_montecarlo_round_robin_per_run;
    Alcotest.test_case "best case steps" `Quick test_best_case_steps;
    Alcotest.test_case "worst case steps" `Quick test_worst_case_steps;
    Alcotest.test_case "worst case unbounded" `Quick test_worst_case_unbounded_for_weak;
    Alcotest.test_case "unreachable marked" `Quick test_best_case_unreachable_marked;
    Alcotest.test_case "histogram total" `Quick test_radius_histogram_sums_to_count;
    Alcotest.test_case "worst dominates best" `Quick test_worst_case_matches_dijkstra_selfstab;
    Alcotest.test_case "absorption gambler" `Quick test_absorption_gamblers_ruin;
    Alcotest.test_case "absorption prob-1" `Quick test_absorption_prob1_consistency;
    Alcotest.test_case "transient distribution" `Quick test_transient_distribution;
    Alcotest.test_case "transient validation" `Quick test_transient_distribution_validation;
    Alcotest.test_case "mass_in" `Quick test_mass_in;
    Alcotest.test_case "stabilized mass monotone" `Quick test_transient_mass_monotone_toward_closed_target;
  ]

(* --- pooled Monte-Carlo --- *)

(* Runs spread over the shared pool at width > 1; width is
   process-global, so each test restores width 1 before returning. *)
let with_width w f =
  Pool.set_width w;
  Fun.protect ~finally:(fun () -> Pool.set_width 1) f

let test_parallel_montecarlo_counts () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 99 in
  let r =
    with_width 3 (fun () ->
        Montecarlo.estimate ~runs:100 ~max_steps:10_000 rng p Scheduler.central_random
          (Stabalgo.Token_ring.spec ~n))
  in
  Alcotest.(check int) "all runs accounted for" 100
    (Array.length r.Montecarlo.times + r.Montecarlo.timeouts)

let test_parallel_montecarlo_deterministic () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let sample () =
    let rng = Stabrng.Rng.create 123 in
    let r =
      with_width 2 (fun () ->
          Montecarlo.estimate ~runs:60 ~max_steps:10_000 rng p Scheduler.central_random
            spec)
    in
    Array.to_list r.Montecarlo.times
  in
  Alcotest.(check (list int)) "same seed, same pooled samples" (sample ()) (sample ())

let test_parallel_equals_serial () =
  (* Streams are pre-split per run in run order, so the pooled estimate
     must reproduce the width-1 sample exactly — same times, same
     order — whatever the pool width. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let estimate () =
    Montecarlo.estimate ~runs:60 ~max_steps:10_000 (Stabrng.Rng.create 321) p
      Scheduler.central_random spec
  in
  let serial = with_width 1 estimate in
  let parallel = with_width 3 estimate in
  Alcotest.(check (list int))
    "same times, same order"
    (Array.to_list serial.Montecarlo.times)
    (Array.to_list parallel.Montecarlo.times);
  Alcotest.(check (list int))
    "same rounds, same order"
    (Array.to_list serial.Montecarlo.rounds)
    (Array.to_list parallel.Montecarlo.rounds);
  Alcotest.(check int) "same timeouts" serial.Montecarlo.timeouts
    parallel.Montecarlo.timeouts

let parallel_suite =
  [
    Alcotest.test_case "parallel counts" `Quick test_parallel_montecarlo_counts;
    Alcotest.test_case "parallel deterministic" `Quick test_parallel_montecarlo_deterministic;
    Alcotest.test_case "parallel equals serial" `Quick test_parallel_equals_serial;
  ]

let suite = suite @ parallel_suite
