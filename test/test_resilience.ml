(* Tests for the exact recovery-radius analysis and budget degradation. *)

open Stabcore

let token_metrics ~n ~ks =
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  (space, spec, Resilience.analyze space Statespace.Central spec ~ks)

let test_token_ring_dual_radius () =
  (* The paper's flagship: weak- but not self-stabilizing under the
     central daemon, so no fault budget has guaranteed recovery while
     every budget recovers with probability 1. *)
  let _, _, metrics = token_metrics ~n:5 ~ks:[ 0; 1; 2; 3; 4; 5 ] in
  let r = Resilience.radius_of metrics in
  Alcotest.(check int) "adversarial radius" 0 r.Resilience.adversarial;
  Alcotest.(check int) "probabilistic radius" 5 r.Resilience.probabilistic;
  Alcotest.(check int) "max_k" 5 r.Resilience.max_k

let test_token_ring_k1_metric () =
  let space, spec, metrics = token_metrics ~n:5 ~ks:[ 0; 1 ] in
  let m0 = List.hd metrics in
  let m1 = List.nth metrics 1 in
  Alcotest.(check bool) "k=0 guaranteed" true m0.Resilience.guaranteed;
  Alcotest.(check (option int)) "k=0 worst case" (Some 0) m0.Resilience.worst_case;
  let legitimate = Statespace.legitimate_set space spec in
  let in_l = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 legitimate in
  Alcotest.(check int) "k=0 faulty set = L" in_l m0.Resilience.faulty_configs;
  Alcotest.(check int) "k=0 nothing corrupted" 0 m0.Resilience.corrupted_configs;
  Alcotest.(check bool) "k=1 not guaranteed" true (not m1.Resilience.guaranteed);
  Alcotest.(check (option int)) "k=1 worst case unbounded" None m1.Resilience.worst_case;
  Alcotest.(check bool) "k=1 prob-1" true m1.Resilience.prob_one;
  (match m1.Resilience.expected_mean with
  | Some mean -> Alcotest.(check bool) "k=1 expected > 0" true (mean > 0.0)
  | None -> Alcotest.fail "expected recovery undefined");
  match (m1.Resilience.expected_mean, m1.Resilience.expected_max) with
  | Some mean, Some worst -> Alcotest.(check bool) "mean <= worst" true (mean <= worst)
  | _ -> Alcotest.fail "expected recovery undefined"

let test_guaranteed_agrees_with_k_stabilizing () =
  (* The radius analysis and the direct k-stabilization check are two
     routes to the same predicate. *)
  let check_protocol p spec cls =
    let space = Statespace.build p in
    let g = Checker.expand space cls in
    let legitimate = Statespace.legitimate_set space spec in
    let metrics = Resilience.analyze space cls spec ~ks:[ 1; 2 ] in
    List.iter
      (fun (m : Resilience.metric) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s k=%d" p.Protocol.name m.Resilience.k)
          (Result.is_ok (Checker.k_stabilizing space g ~legitimate ~k:m.Resilience.k))
          m.Resilience.guaranteed)
      metrics
  in
  check_protocol (Stabalgo.Token_ring.make ~n:5) (Stabalgo.Token_ring.spec ~n:5)
    Statespace.Central;
  let g4 = Stabgraph.Graph.ring 4 in
  check_protocol (Stabalgo.Coloring.make g4) (Stabalgo.Coloring.spec g4)
    Statespace.Central

let test_self_stabilizing_has_full_radius () =
  (* Dijkstra's K-state ring is self-stabilizing under the central
     daemon: every fault budget recovers, with a finite exact worst
     case that grows with k. *)
  let n = 4 in
  let p = Stabalgo.Dijkstra_kstate.make ~n () in
  let spec = Stabalgo.Dijkstra_kstate.spec ~n in
  let space = Statespace.build p in
  let metrics = Resilience.analyze space Statespace.Central spec ~ks:[ 0; 1; 2; 3; 4 ] in
  let r = Resilience.radius_of metrics in
  Alcotest.(check int) "adversarial radius = n" n r.Resilience.adversarial;
  Alcotest.(check int) "probabilistic radius = n" n r.Resilience.probabilistic;
  let worsts =
    List.map
      (fun (m : Resilience.metric) ->
        match m.Resilience.worst_case with
        | Some w -> w
        | None -> Alcotest.fail "unbounded on a self-stabilizing protocol")
      metrics
  in
  Alcotest.(check bool)
    "worst case monotone in k" true
    (List.for_all2 ( <= ) worsts (List.tl worsts @ [ max_int ]));
  (* At k = n the faulty set is all of C, so the radius analysis must
     reproduce the global worst-case stabilization time. *)
  let g = Checker.expand space Statespace.Central in
  let legitimate = Statespace.legitimate_set space spec in
  match Checker.worst_case_steps space g ~legitimate with
  | None -> Alcotest.fail "dijkstra should certainly converge"
  | Some wc ->
    let global = Array.fold_left max 0 wc in
    Alcotest.(check int) "k=n equals global worst case" global
      (List.nth worsts n)

let test_radius_of_requires_metrics () =
  Alcotest.check_raises "empty" (Invalid_argument "Resilience.radius_of: no metrics")
    (fun () -> ignore (Resilience.radius_of []))

(* --- graceful degradation: the Analysis planner and ladder --- *)

let token_ring_request ?max_configs ?inits n =
  Analysis.request ?max_configs ?inits ~runs:20
    (Analysis.instance (Stabalgo.Token_ring.make ~n) (Stabalgo.Token_ring.spec ~n))
    Statespace.Central

(* What each rung of the Check ladder answers, in ladder order: the
   first [Ok] is where a ladder walk stops. *)
let rungs request =
  List.map (Analysis.attempt request Analysis.Check) (Analysis.ladder Analysis.Check)

let test_plan_exact_when_small () =
  match Analysis.plan (token_ring_request 5) with
  | Analysis.Fits space -> Alcotest.(check int) "full space" 32 (Statespace.count space)
  | Analysis.Over_budget _ | Analysis.Too_large _ -> Alcotest.fail "expected exact"

let test_plan_degrades_to_onthefly () =
  match Analysis.plan (token_ring_request ~max_configs:10 5) with
  | Analysis.Over_budget space ->
    Alcotest.(check int) "encoding intact" 32 (Statespace.count space)
  | Analysis.Fits _ | Analysis.Too_large _ -> Alcotest.fail "expected on-the-fly"

let test_plan_degrades_to_montecarlo () =
  (* 3^20 ~ 3.5e9 configurations: past the ladder's on-the-fly limit. *)
  match Analysis.plan (token_ring_request ~max_configs:10 20) with
  | Analysis.Too_large reason -> Alcotest.(check bool) "reason given" true (reason <> "")
  | Analysis.Fits _ | Analysis.Over_budget _ -> Alcotest.fail "expected montecarlo"

let test_try_build_reports_overflow () =
  (match Analysis.verdicts (token_ring_request 5) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "small space should build");
  match Analysis.verdicts (token_ring_request ~max_configs:10 5) with
  | Ok _ -> Alcotest.fail "budget should fail the build"
  | Error msg -> Alcotest.(check bool) "message" true (msg <> "")

let test_budget_exact () =
  match rungs (token_ring_request 5) with
  | Ok (Analysis.Verdicts { verdict = v; _ }) :: _ ->
    Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
    Alcotest.(check bool) "not self-stabilizing" true (not (Checker.self_stabilizing v))
  | _ -> Alcotest.fail "expected exact verdict"

let test_budget_onthefly () =
  let n = 5 in
  let inits = Analysis.Inits [ Stabalgo.Token_ring.legitimate_config ~n ] in
  (* Budget below the 32 configurations but big enough to finish the
     forward exploration from one legitimate start. *)
  match rungs (token_ring_request ~max_configs:20 ~inits n) with
  | [ Error _; Ok (Analysis.Reachable { result; _ }); _ ] ->
    Alcotest.(check bool)
      "possible convergence holds from L" true
      (result.Onthefly.possible = Onthefly.Converges);
    Alcotest.(check bool) "exploration bounded" true
      (result.Onthefly.stats.Onthefly.explored <= 20)
  | Ok _ :: _ -> Alcotest.fail "budget should preclude exact analysis"
  | _ -> Alcotest.fail "on-the-fly should apply"

let test_budget_montecarlo_without_inits () =
  match rungs (token_ring_request ~max_configs:10 ~inits:(Analysis.Inits []) 5) with
  | [ Error _; Error reason; Ok (Analysis.Simulated _) ] ->
    Alcotest.(check bool) "reason" true (reason <> "")
  | _ -> Alcotest.fail "no inits: only sampling remains"

let suite =
  [
    Alcotest.test_case "token ring dual radius" `Quick test_token_ring_dual_radius;
    Alcotest.test_case "token ring k=1 metric" `Quick test_token_ring_k1_metric;
    Alcotest.test_case "agrees with k-stabilizing" `Quick test_guaranteed_agrees_with_k_stabilizing;
    Alcotest.test_case "dijkstra full radius" `Slow test_self_stabilizing_has_full_radius;
    Alcotest.test_case "radius_of validation" `Quick test_radius_of_requires_metrics;
    Alcotest.test_case "plan exact" `Quick test_plan_exact_when_small;
    Alcotest.test_case "plan onthefly" `Quick test_plan_degrades_to_onthefly;
    Alcotest.test_case "plan montecarlo" `Quick test_plan_degrades_to_montecarlo;
    Alcotest.test_case "try_build" `Quick test_try_build_reports_overflow;
    Alcotest.test_case "budget exact" `Quick test_budget_exact;
    Alcotest.test_case "budget onthefly" `Quick test_budget_onthefly;
    Alcotest.test_case "budget montecarlo" `Quick test_budget_montecarlo_without_inits;
  ]
