(* Tests for the analysis ladder: rung order per question, the class
   maps, the demotion rules (budget, the 10^9 on-the-fly limit, no
   inits, a non-converged sparse solve), the typed entry points behind
   the rungs and the space shared by the questions asked of one
   instance. *)

open Stabcore

let token_ring ?relabel n =
  Analysis.instance ?relabel (Stabalgo.Token_ring.make ~n) (Stabalgo.Token_ring.spec ~n)

let labels question = List.map Analysis.rung_label (Analysis.ladder question)

let test_ladders () =
  Alcotest.(check (list string))
    "check" [ "exact"; "onthefly"; "montecarlo" ] (labels Analysis.Check);
  Alcotest.(check (list string)) "markov" [ "exact"; "montecarlo" ] (labels Analysis.Markov);
  Alcotest.(check (list string)) "montecarlo" [ "montecarlo" ] (labels Analysis.Montecarlo)

let test_class_maps () =
  List.iter
    (fun (cls, randomization, name) ->
      Alcotest.(check bool) name true (Analysis.randomization cls = randomization);
      Alcotest.(check string) name name (Analysis.scheduler cls ()).Scheduler.name)
    [
      (Statespace.Central, Markov.Central_uniform, "central-random");
      (Statespace.Distributed, Markov.Distributed_uniform, "distributed-random");
      (Statespace.Synchronous, Markov.Sync, "synchronous");
    ]

(* A Check request over budget: the exact rung refuses with the budget,
   the on-the-fly rung answers from the default five initial
   configurations. *)
let test_over_budget_demotes_to_onthefly () =
  let request = Analysis.request ~max_configs:3000 (token_ring 6) Statespace.Central in
  (match Analysis.attempt request Analysis.Check Analysis.Exact_rung with
  | Ok _ -> Alcotest.fail "over budget answered exactly"
  | Error reason ->
    Alcotest.(check string) "reason" "4096 configurations exceed the exact budget of 3000"
      reason);
  match Analysis.attempt request Analysis.Check Analysis.Onthefly_rung with
  | Ok (Analysis.Reachable { inits; result; _ }) ->
    Alcotest.(check int) "default inits" 5 inits;
    Alcotest.(check bool) "weak holds" true (result.Onthefly.possible = Onthefly.Converges)
  | _ -> Alcotest.fail "expected an on-the-fly answer"

(* Past 10^9 configurations the ladder's on-the-fly rung refuses, but
   an explicit exploration still runs within its state budget. *)
let test_reachable_past_onthefly_limit () =
  let request = Analysis.request ~max_configs:50 (token_ring 20) Statespace.Central in
  (match Analysis.attempt request Analysis.Check Analysis.Onthefly_rung with
  | Ok _ -> Alcotest.fail "the ladder explored past 10^9 configurations"
  | Error reason -> Alcotest.(check bool) "reason" true (reason <> ""));
  match Analysis.reachable request with
  | Ok (space, result) ->
    Alcotest.(check bool) "3^20 configurations" true (Statespace.count space = 3486784401);
    Alcotest.(check bool) "within the state budget" true
      (result.Onthefly.stats.Onthefly.explored <= 50)
  | Error reason -> Alcotest.fail reason

let test_montecarlo_has_no_exact_rung () =
  let request = Analysis.request (token_ring 4) Statespace.Central in
  match Analysis.attempt request Analysis.Montecarlo Analysis.Exact_rung with
  | Ok _ -> Alcotest.fail "a Monte-Carlo question answered exactly"
  | Error reason -> Alcotest.(check bool) "reason" true (reason <> "")

(* A sparse solve that exhausts its sweep budget demotes a Markov
   question to sampling, unless the caller keeps the partial iterate. *)
let test_max_sweeps_demotes () =
  let hitting =
    Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-30; max_sweeps = 1 }
  in
  let request = Analysis.request ~hitting ~runs:20 (token_ring 5) Statespace.Central in
  (match Analysis.attempt request Analysis.Markov Analysis.Exact_rung with
  | Ok _ -> Alcotest.fail "a non-converged solve answered exactly"
  | Error reason -> Alcotest.(check bool) "reason" true (reason <> ""));
  (match Analysis.attempt request Analysis.Markov Analysis.Montecarlo_rung with
  | Ok (Analysis.Simulated _) -> ()
  | _ -> Alcotest.fail "expected the Monte-Carlo rung");
  match Analysis.chain ~keep_nonconverged:true request with
  | Ok (_, Ok (_, Some (Markov.Max_sweeps _))) -> ()
  | _ -> Alcotest.fail "expected the partial iterate"

(* Questions asked of one instance share its space, so the second
   question reuses the first one's expansion. *)
let test_instance_shares_space () =
  let request = Analysis.request (token_ring 5) Statespace.Central in
  match (Analysis.verdicts request, Analysis.chain request) with
  | Ok (checked, _), Ok (chained, _) ->
    Alcotest.(check bool) "one space" true (checked == chained)
  | _ -> Alcotest.fail "expected exact answers"

(* The on-the-fly rung answers exactly what the exploration entry
   does, from the same seeded initial configurations. *)
let test_onthefly_rung_matches_exploration () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let rng = Stabrng.Rng.create 7 in
  let inits = List.init 3 (fun _ -> Protocol.random_config rng p) in
  let direct =
    Onthefly.analyze (Statespace.build p) Statespace.Distributed spec ~inits
  in
  let request =
    Analysis.request ~seed:7 ~inits:(Analysis.Random_inits 3) (Analysis.instance p spec)
      Statespace.Distributed
  in
  match Analysis.attempt request Analysis.Check Analysis.Onthefly_rung with
  | Ok (Analysis.Reachable { result; _ }) ->
    Alcotest.(check bool) "same verdicts and stats" true (result = direct)
  | _ -> Alcotest.fail "expected an on-the-fly answer"

let suite =
  [
    Alcotest.test_case "ladders" `Quick test_ladders;
    Alcotest.test_case "class maps" `Quick test_class_maps;
    Alcotest.test_case "over budget demotes to onthefly" `Quick
      test_over_budget_demotes_to_onthefly;
    Alcotest.test_case "reachable past onthefly limit" `Quick
      test_reachable_past_onthefly_limit;
    Alcotest.test_case "montecarlo has no exact rung" `Quick
      test_montecarlo_has_no_exact_rung;
    Alcotest.test_case "max sweeps demotes" `Quick test_max_sweeps_demotes;
    Alcotest.test_case "instance shares space" `Quick test_instance_shares_space;
    Alcotest.test_case "onthefly rung matches exploration" `Quick
      test_onthefly_rung_matches_exploration;
  ]
