(* Tests for fault injection and the synchronous orbit census. *)

open Stabcore

let test_corrupt_changes_exactly_k () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 1 in
  let base = Stabalgo.Token_ring.legitimate_config ~n in
  for k = 0 to n do
    let corrupted = Faults.corrupt rng p base ~faults:k in
    let space = Statespace.build p in
    Alcotest.(check int)
      (Printf.sprintf "exactly %d changes" k)
      (min k n)
      (Checker.hamming space base corrupted)
  done

let test_corrupt_is_pure () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 2 in
  let base = Stabalgo.Token_ring.legitimate_config ~n in
  let snapshot = Array.copy base in
  ignore (Faults.corrupt rng p base ~faults:3);
  Alcotest.(check (array int)) "input untouched" snapshot base

let test_corrupt_respects_domain () =
  let g = Stabgraph.Graph.star 5 in
  let p = Stabalgo.Leader_tree.make g in
  let rng = Stabrng.Rng.create 3 in
  for _ = 1 to 50 do
    let base = Protocol.random_config rng p in
    let corrupted = Faults.corrupt rng p base ~faults:2 in
    Array.iteri
      (fun i s ->
        if not (List.exists (p.Protocol.equal s) (p.Protocol.domain i)) then
          Alcotest.fail "corrupted state outside domain")
      corrupted
  done

let test_corrupt_skips_singleton_domains () =
  (* A protocol whose process 0 has a singleton domain can only be
     corrupted at other processes. *)
  let p : int Protocol.t =
    {
      Protocol.name = "half-frozen";
      graph = Stabgraph.Graph.chain 2;
      domain = (fun i -> if i = 0 then [ 7 ] else [ 0; 1; 2 ]);
      actions =
        [
          {
            label = "noop";
            guard = (fun _ _ -> false);
            result = (fun cfg p -> [ (cfg.(p), 1.0) ]);
          };
        ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  let rng = Stabrng.Rng.create 4 in
  for _ = 1 to 20 do
    let corrupted = Faults.corrupt rng p [| 7; 0 |] ~faults:2 in
    Alcotest.(check int) "frozen process untouched" 7 corrupted.(0)
  done

let test_corrupt_validation () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  Alcotest.check_raises "negative" (Invalid_argument "Faults.corrupt: negative fault count")
    (fun () -> ignore (Faults.corrupt (Stabrng.Rng.create 0) p [| 0; 0; 0; 0 |] ~faults:(-1)))

let test_recovery_zero_faults_is_instant () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 5 in
  let r =
    Faults.recovery_profile ~runs:1 ~max_steps:100 rng p Scheduler.central_random
      (Stabalgo.Token_ring.spec ~n)
      ~from:(Stabalgo.Token_ring.legitimate_config ~n)
      ~faults:0
  in
  Alcotest.(check (array int)) "zero steps" [| 0 |] r.Montecarlo.times

let test_recovery_profile_all_converge () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 6 in
  let profile =
    Faults.recovery_profile ~runs:100 ~max_steps:100_000 rng p Scheduler.central_random
      (Stabalgo.Token_ring.spec ~n)
      ~from:(Stabalgo.Token_ring.legitimate_config ~n)
      ~faults:2
  in
  Alcotest.(check int) "no timeouts" 0 profile.Montecarlo.timeouts;
  Alcotest.(check int) "100 samples" 100 (Array.length profile.Montecarlo.times)

let test_recovery_cost_grows_with_faults () =
  let n = 8 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 7 in
  let mean faults =
    let profile =
      Faults.recovery_profile ~runs:400 ~max_steps:100_000 rng p Scheduler.central_random
        (Stabalgo.Token_ring.spec ~n)
        ~from:(Stabalgo.Token_ring.legitimate_config ~n)
        ~faults
    in
    match profile.Montecarlo.summary with
    | Some s -> s.Stabstats.Stats.mean
    | None -> Alcotest.fail "no samples"
  in
  Alcotest.(check bool) "k=3 costs more than k=1" true (mean 3 > mean 1)

let test_corrupt_more_faults_than_processes () =
  (* Asking for more faults than corruptible processes changes them
     all, exactly once each. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 8 in
  let base = Stabalgo.Token_ring.legitimate_config ~n in
  let corrupted = Faults.corrupt rng p base ~faults:(n + 5) in
  let space = Statespace.build p in
  Alcotest.(check int) "all processes changed" n (Checker.hamming space base corrupted)

let test_corrupt_all_singletons_is_noop () =
  let p : int Protocol.t =
    {
      Protocol.name = "frozen";
      graph = Stabgraph.Graph.chain 3;
      domain = (fun _ -> [ 9 ]);
      actions =
        [
          {
            label = "noop";
            guard = (fun _ _ -> false);
            result = (fun cfg q -> [ (cfg.(q), 1.0) ]);
          };
        ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  let rng = Stabrng.Rng.create 9 in
  Alcotest.(check (array int))
    "nothing to corrupt" [| 9; 9; 9 |]
    (Faults.corrupt rng p [| 9; 9; 9 |] ~faults:3)

let test_corrupt_deterministic_under_seed () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let base = Stabalgo.Token_ring.legitimate_config ~n in
  let draw () = Faults.corrupt (Stabrng.Rng.create 77) p base ~faults:3 in
  Alcotest.(check (array int)) "same seed, same corruption" (draw ()) (draw ())

(* --- fault plans and the engine injection hook --- *)

let test_periodic_plan_fires_on_schedule () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let plan = Faults.periodic p ~gap:10 ~faults:1 in
  let inject = Faults.arm plan (Stabrng.Rng.create 10) in
  let cfg = Stabalgo.Token_ring.legitimate_config ~n in
  Alcotest.(check bool) "step 0 silent" true (inject ~step:0 ~cfg = None);
  Alcotest.(check bool) "step 7 silent" true (inject ~step:7 ~cfg = None);
  Alcotest.(check bool) "step 10 fires" true (inject ~step:10 ~cfg <> None);
  Alcotest.(check bool) "step 20 fires" true (inject ~step:20 ~cfg <> None)

let test_burst_plan_fires_once_per_entry () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let plan = Faults.burst p ~at:[ 5; 2; 5 ] ~faults:1 in
  let inject = Faults.arm plan (Stabrng.Rng.create 11) in
  let cfg = Stabalgo.Token_ring.legitimate_config ~n in
  Alcotest.(check bool) "step 1 silent" true (inject ~step:1 ~cfg = None);
  Alcotest.(check bool) "step 2 fires" true (inject ~step:2 ~cfg <> None);
  (* The duplicate 5 was deduplicated: one firing at 5, then silence. *)
  Alcotest.(check bool) "step 5 fires" true (inject ~step:5 ~cfg <> None);
  Alcotest.(check bool) "step 6 silent" true (inject ~step:6 ~cfg = None);
  (* Re-arming resets the schedule. *)
  let inject2 = Faults.arm plan (Stabrng.Rng.create 12) in
  Alcotest.(check bool) "re-armed fires again" true (inject2 ~step:3 ~cfg <> None)

let test_plan_validation () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  Alcotest.check_raises "bad gap"
    (Invalid_argument "Faults.periodic: gap must be positive") (fun () ->
      ignore (Faults.periodic p ~gap:0 ~faults:1));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Faults.bernoulli: rate outside (0, 1)") (fun () ->
      ignore (Faults.bernoulli p ~rate:1.5 ~faults:1));
  Alcotest.check_raises "negative burst step"
    (Invalid_argument "Faults.burst: negative step") (fun () ->
      ignore (Faults.burst p ~at:[ -1 ] ~faults:1))

let test_adversarial_plan_increases_severity () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Central in
  let legitimate = Statespace.legitimate_set space spec in
  let dist = Checker.best_case_steps space g ~legitimate in
  let plan = Faults.adversarial space g spec ~gap:1 ~faults:2 in
  let inject = Faults.arm plan (Stabrng.Rng.create 13) in
  let from = Stabalgo.Token_ring.legitimate_config ~n in
  (match inject ~step:1 ~cfg:from with
  | None -> Alcotest.fail "adversary found no corruption from L"
  | Some out ->
    Alcotest.(check bool)
      "severity strictly increased" true
      (dist.(Statespace.code space out) > dist.(Statespace.code space from));
    Alcotest.(check bool)
      "within fault budget" true
      (Checker.hamming space from out <= 2));
  (* Deterministic: same configuration, same corruption. *)
  let again = Faults.arm plan (Stabrng.Rng.create 14) in
  Alcotest.(check bool)
    "deterministic" true
    (inject ~step:2 ~cfg:from = again ~step:1 ~cfg:from)

let test_engine_injections_counted_and_stepless () =
  (* A plan injecting every step must not consume steps: the run still
     takes max_steps scheduler steps and records max_steps injections
     (the step-0 call fires nothing for periodic plans). *)
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let plan = Faults.periodic p ~gap:1 ~faults:1 in
  let rng = Stabrng.Rng.create 15 in
  let inject = Faults.arm plan rng in
  let r =
    Engine.run ~record:false ~inject ~max_steps:20 rng p (Scheduler.central_random ())
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  Alcotest.(check int) "all steps taken" 20 r.Engine.steps;
  (* The hook runs once per loop iteration, including the final one
     whose step counter equals max_steps, so steps 1..20 all fire. *)
  Alcotest.(check int) "one injection per positive step" 20 r.Engine.injections

let test_availability_bounds_and_entries () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let plan = Faults.periodic p ~gap:25 ~faults:1 in
  let a =
    (Faults.availability_profile ~runs:1 ~horizon:500 (Stabrng.Rng.create 16) p
       Scheduler.central_random spec ~plan
       ~init:(Stabalgo.Token_ring.legitimate_config ~n))
      .Stabstats.Stats.mean
  in
  (* The first fault lands at step 25 of 500: up more than half the
     time means the run recovered, down some of the time means the
     plan injected. *)
  Alcotest.(check bool) "faults injected" true (a < 1.0);
  Alcotest.(check bool) "mostly up: faults are rare, recovery follows" true (a > 0.5)

let test_recovery_profile_with_plan_converges () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let plan = Faults.periodic p ~gap:100 ~faults:1 in
  let profile =
    Faults.recovery_profile ~plan ~runs:50 ~max_steps:100_000 (Stabrng.Rng.create 17) p
      Scheduler.central_random spec
      ~from:(Stabalgo.Token_ring.legitimate_config ~n)
      ~faults:2
  in
  Alcotest.(check int) "all runs converge" 0 profile.Montecarlo.timeouts

(* --- plan edge cases: the boundaries of every plan's parameter space --- *)

let test_burst_at_step_zero_fires () =
  (* A burst scheduled at step 0 fires on the engine's very first hook
     call — there is no silent warm-up step. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let plan = Faults.burst p ~at:[ 0 ] ~faults:1 in
  let inject = Faults.arm plan (Stabrng.Rng.create 30) in
  let cfg = Stabalgo.Token_ring.legitimate_config ~n in
  Alcotest.(check bool) "step 0 fires" true (inject ~step:0 ~cfg <> None);
  Alcotest.(check bool) "one-shot: step 1 silent" true (inject ~step:1 ~cfg = None)

let test_bernoulli_rate_zero_rejected () =
  (* Both degenerate rates are rejected: p = 0 never fires and p = 1 is
     a periodic plan with gap 1 — both are spelled differently. *)
  let p = Stabalgo.Token_ring.make ~n:4 in
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Faults.bernoulli: rate outside (0, 1)") (fun () ->
      ignore (Faults.bernoulli p ~rate:0.0 ~faults:1))

let test_bernoulli_rate_one_rejected () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  Alcotest.check_raises "rate 1"
    (Invalid_argument "Faults.bernoulli: rate outside (0, 1)") (fun () ->
      ignore (Faults.bernoulli p ~rate:1.0 ~faults:1))

let test_crash_wake_p_zero_is_permanent () =
  (* wake_p = 0 is the permanent crash: a fully-failed ring stalls on
     the first scheduler call, exactly like the no-wake_p default. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let sched =
    Scheduler.crash ~wake_p:0.0 ~failed:[ 0; 1; 2; 3 ] (Scheduler.central_random ())
  in
  let rng = Stabrng.Rng.create 31 in
  let r =
    Engine.run ~record:false ~max_steps:50 rng p sched
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  Alcotest.(check bool) "stalled" true (r.Engine.stop = Engine.Stalled);
  Alcotest.(check int) "no steps" 0 r.Engine.steps

let test_crash_wake_p_one_rejected () =
  (* wake_p = 1 would mean "crashed but always awake" — the interval is
     half-open [0, 1) and the top end is rejected. NaN compares false
     with everything, so it must be rejected too rather than silently
     running a permanent crash. *)
  List.iter
    (fun wake_p ->
      Alcotest.check_raises
        (Printf.sprintf "wake_p %g" wake_p)
        (Invalid_argument "Scheduler.crash: wake_p outside [0, 1)")
        (fun () ->
          ignore
            (Scheduler.crash ~wake_p ~failed:[ 0 ]
               (Scheduler.central_random () : int Scheduler.t))))
    [ 1.0; Float.nan ]

(* --- crash faults --- *)

let test_crash_scheduler_silences_permanently () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  (* Crash every process: the first scheduler call returns the empty
     set and the engine reports Stalled without taking a step. *)
  let sched = Scheduler.crash ~failed:[ 0; 1; 2; 3 ] (Scheduler.central_random ()) in
  let rng = Stabrng.Rng.create 18 in
  let r =
    Engine.run ~record:false ~max_steps:50 rng p sched
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  Alcotest.(check bool) "stalled" true (r.Engine.stop = Engine.Stalled);
  Alcotest.(check int) "no steps" 0 r.Engine.steps

let test_crash_scheduler_intermittent_progresses () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let sched =
    Scheduler.crash ~wake_p:0.3 ~failed:[ 0; 1; 2; 3 ] (Scheduler.central_random ())
  in
  let rng = Stabrng.Rng.create 19 in
  let r =
    Engine.run ~record:false ~max_steps:50 rng p sched
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  (* Intermittent crashes redraw until someone wakes: never stalls. *)
  Alcotest.(check bool) "not stalled" true (r.Engine.stop = Engine.Exhausted);
  Alcotest.(check int) "all steps taken" 50 r.Engine.steps

let test_crash_scheduler_validation () =
  Alcotest.check_raises "empty failed set"
    (Invalid_argument "Scheduler.crash: empty failed set") (fun () ->
      ignore (Scheduler.crash ~failed:[] (Scheduler.central_random () : int Scheduler.t)));
  Alcotest.check_raises "bad wake_p"
    (Invalid_argument "Scheduler.crash: wake_p outside [0, 1)") (fun () ->
      ignore
        (Scheduler.crash ~wake_p:1.0 ~failed:[ 0 ]
           (Scheduler.central_random () : int Scheduler.t)))

let test_crash_protocol_disables_failed_guards () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let crashed = Faults.crash_protocol p ~failed:[ 2 ] in
  let space = Statespace.build p in
  for c = 0 to Statespace.count space - 1 do
    let cfg = Statespace.config space c in
    if List.mem 2 (Protocol.enabled_processes crashed cfg) then
      Alcotest.fail "crashed process still enabled";
    (* Survivors keep exactly their original enabledness. *)
    let alive l = List.filter (fun q -> q <> 2) l in
    if
      alive (Protocol.enabled_processes p cfg)
      <> Protocol.enabled_processes crashed cfg
    then Alcotest.fail "crash changed a survivor's guard"
  done

let test_crash_protocol_validation () =
  let p = Stabalgo.Token_ring.make ~n:3 in
  Alcotest.check_raises "empty" (Invalid_argument "Faults.crash_protocol: empty failed set")
    (fun () -> ignore (Faults.crash_protocol p ~failed:[]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Faults.crash_protocol: process 7 out of range") (fun () ->
      ignore (Faults.crash_protocol p ~failed:[ 7 ]))

let test_montecarlo_estimate_with_inject () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let plan = Faults.periodic p ~gap:200 ~faults:1 in
  let result =
    Montecarlo.estimate ~inject:(Faults.arm plan)
      ~init:(fun _ -> Stabalgo.Token_ring.legitimate_config ~n)
      ~runs:50 ~max_steps:100_000 (Stabrng.Rng.create 20) p Scheduler.central_random spec
  in
  Alcotest.(check int) "all converge despite faults" 0 result.Montecarlo.timeouts

(* --- synchronous orbit census --- *)

let test_census_counts_all_configs () =
  let g = Stabgraph.Graph.chain 4 in
  let p = Stabalgo.Leader_tree.make g in
  let space = Statespace.build p in
  let census = Checker.sync_orbit_census space in
  Alcotest.(check int) "total" (Statespace.count space)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 census)

let test_census_terminal_only_for_silent_selfstab () =
  (* Matching is synchronously self-stabilizing and silent: everything
     must reach a terminal configuration. *)
  let g = Stabgraph.Graph.chain 5 in
  let p = Stabalgo.Matching.make g in
  let space = Statespace.build p in
  match Checker.sync_orbit_census space with
  | [ (0, total) ] -> Alcotest.(check int) "all terminal" (Statespace.count space) total
  | census ->
    Alcotest.failf "unexpected census: %s"
      (String.concat " " (List.map (fun (l, c) -> Printf.sprintf "%d:%d" l c) census))

let test_census_two_bool () =
  (* two-bool synchronously: (f,f) -> (t,t) terminal; (t,f) -> (f,f);
     all four configurations end terminal. *)
  let p = Stabalgo.Two_bool.make () in
  let space = Statespace.build p in
  Alcotest.(check (list (pair int int))) "census" [ (0, 4) ]
    (Checker.sync_orbit_census space)

let test_census_fig3_oscillation_counted () =
  (* The 4-chain leader tree: Figure 3's 2-cycles dominate; exactly the
     4 LC configurations are terminal. *)
  let g = Stabgraph.Graph.chain 4 in
  let p = Stabalgo.Leader_tree.make g in
  let space = Statespace.build p in
  let census = Checker.sync_orbit_census space in
  (match List.assoc_opt 0 census with
  | Some terminal -> Alcotest.(check int) "terminal = LC count" 4 terminal
  | None -> Alcotest.fail "no terminal configurations found");
  Alcotest.(check bool) "2-cycles exist" true (List.mem_assoc 2 census)

let test_census_rejects_randomized () =
  let p = Transformer.randomize (Stabalgo.Two_bool.make ()) in
  let space = Statespace.build p in
  Alcotest.check_raises "randomized"
    (Invalid_argument "Checker.sync_orbit_census: randomized protocol") (fun () ->
      ignore (Checker.sync_orbit_census space))

let test_census_token_ring_no_terminal () =
  (* The token ring never halts: no length-0 entries. *)
  let p = Stabalgo.Token_ring.make ~n:5 in
  let space = Statespace.build p in
  let census = Checker.sync_orbit_census space in
  Alcotest.(check bool) "no terminal configs" true (not (List.mem_assoc 0 census))

let suite =
  [
    Alcotest.test_case "corrupt changes exactly k" `Quick test_corrupt_changes_exactly_k;
    Alcotest.test_case "corrupt is pure" `Quick test_corrupt_is_pure;
    Alcotest.test_case "corrupt respects domain" `Quick test_corrupt_respects_domain;
    Alcotest.test_case "corrupt skips singletons" `Quick test_corrupt_skips_singleton_domains;
    Alcotest.test_case "corrupt validation" `Quick test_corrupt_validation;
    Alcotest.test_case "corrupt faults > n" `Quick test_corrupt_more_faults_than_processes;
    Alcotest.test_case "corrupt all-singleton no-op" `Quick test_corrupt_all_singletons_is_noop;
    Alcotest.test_case "corrupt deterministic" `Quick test_corrupt_deterministic_under_seed;
    Alcotest.test_case "periodic plan schedule" `Quick test_periodic_plan_fires_on_schedule;
    Alcotest.test_case "burst plan one-shot entries" `Quick test_burst_plan_fires_once_per_entry;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "adversarial plan severity" `Quick test_adversarial_plan_increases_severity;
    Alcotest.test_case "burst at step 0 fires" `Quick test_burst_at_step_zero_fires;
    Alcotest.test_case "bernoulli rate 0 rejected" `Quick test_bernoulli_rate_zero_rejected;
    Alcotest.test_case "bernoulli rate 1 rejected" `Quick test_bernoulli_rate_one_rejected;
    Alcotest.test_case "crash wake_p 0 permanent" `Quick test_crash_wake_p_zero_is_permanent;
    Alcotest.test_case "crash wake_p 1 rejected" `Quick test_crash_wake_p_one_rejected;
    Alcotest.test_case "inject hook stepless" `Quick test_engine_injections_counted_and_stepless;
    Alcotest.test_case "availability bounds" `Quick test_availability_bounds_and_entries;
    Alcotest.test_case "recovery under plan" `Quick test_recovery_profile_with_plan_converges;
    Alcotest.test_case "crash permanent stalls" `Quick test_crash_scheduler_silences_permanently;
    Alcotest.test_case "crash intermittent progresses" `Quick test_crash_scheduler_intermittent_progresses;
    Alcotest.test_case "crash scheduler validation" `Quick test_crash_scheduler_validation;
    Alcotest.test_case "crash protocol guards" `Quick test_crash_protocol_disables_failed_guards;
    Alcotest.test_case "crash protocol validation" `Quick test_crash_protocol_validation;
    Alcotest.test_case "montecarlo with inject" `Quick test_montecarlo_estimate_with_inject;
    Alcotest.test_case "recovery zero faults" `Quick test_recovery_zero_faults_is_instant;
    Alcotest.test_case "recovery profile" `Quick test_recovery_profile_all_converge;
    Alcotest.test_case "recovery grows with k" `Slow test_recovery_cost_grows_with_faults;
    Alcotest.test_case "census total" `Quick test_census_counts_all_configs;
    Alcotest.test_case "census silent protocols" `Quick test_census_terminal_only_for_silent_selfstab;
    Alcotest.test_case "census two-bool" `Quick test_census_two_bool;
    Alcotest.test_case "census fig3" `Quick test_census_fig3_oscillation_counted;
    Alcotest.test_case "census rejects randomized" `Quick test_census_rejects_randomized;
    Alcotest.test_case "census token ring" `Quick test_census_token_ring_no_terminal;
  ]
