(* Resilience in practice: inject transient faults into a stabilized
   system and watch it recover — then scale the same question to
   instances far beyond exhaustive checking with the on-the-fly
   analyzer.

   This is the operational meaning of everything the paper formalizes:
   a weak-stabilizing protocol under a randomized daemon (Theorem 7)
   recovers from any corruption with probability 1, and the recovery
   cost grows with the number of corrupted memories (the k of
   k-stabilization).

   Run with: dune exec examples/resilience.exe *)

open Stabcore

let () =
  let n = 9 in
  let protocol = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let legitimate = Stabalgo.Token_ring.legitimate_config ~n in
  let rng = Stabrng.Rng.create 2026 in

  (* One concrete fault story. *)
  Format.printf "--- one corruption-and-recovery story (n = %d ring)@." n;
  Format.printf "stabilized configuration: %a@."
    (Protocol.pp_config protocol) legitimate;
  let corrupted = Faults.corrupt rng protocol legitimate ~faults:3 in
  Format.printf "after 3 memory faults:    %a (%d tokens)@."
    (Protocol.pp_config protocol) corrupted
    (List.length (Stabalgo.Token_ring.token_holders ~n corrupted));
  let run =
    Engine.run ~stop_on:spec ~max_steps:10_000 rng protocol
      (Scheduler.central_random ()) ~init:corrupted
  in
  Format.printf "recovered in %d steps (%d rounds); final: %a@.@." run.Engine.steps
    run.Engine.rounds
    (Protocol.pp_config protocol) run.Engine.final;

  (* Recovery-cost profile over the fault count. *)
  Format.printf "--- recovery cost vs number of faults (500 runs each)@.";
  List.iter
    (fun faults ->
      let profile =
        Faults.recovery_profile ~runs:500 ~max_steps:100_000 rng protocol
          (Scheduler.central_random ()) spec ~from:legitimate ~faults
      in
      Format.printf "k = %d: %a@." faults Montecarlo.pp_result profile)
    [ 1; 2; 3; 5 ];
  Format.printf "@.";

  (* Recurrent faults: instead of one corruption and a clean recovery
     window, a fault plan keeps injecting while the run is measured.
     Availability = fraction of observed configurations inside L. *)
  Format.printf "--- availability under recurrent faults (200 runs, horizon 2000)@.";
  List.iter
    (fun (label, plan) ->
      let s =
        Faults.availability_profile ~runs:200 ~horizon:2000 rng protocol
          (Scheduler.central_random ()) spec ~plan ~init:legitimate
      in
      Format.printf "%-28s mean %.4f  [%.4f, %.4f]@." label
        s.Stabstats.Stats.mean s.Stabstats.Stats.ci95_low s.Stabstats.Stats.ci95_high)
    [
      ("periodic(gap=25,k=1):", Faults.periodic protocol ~gap:25 ~faults:1);
      ("bernoulli(rate=0.04,k=1):", Faults.bernoulli protocol ~rate:0.04 ~faults:1);
    ];
  Format.printf "@.";

  (* Crash faults: silence one process forever and ask the exhaustive
     checker what stabilization survives on the induced sub-protocol
     (the Dolev-Herman question). *)
  let cn = 5 in
  let cp = Stabalgo.Token_ring.make ~n:cn in
  let cspec = Stabalgo.Token_ring.spec ~n:cn in
  Format.printf "--- crash process 2 of the %d-ring and re-analyze@." cn;
  let crashed = Faults.crash_protocol cp ~failed:[ 2 ] in
  let v = Checker.analyze (Statespace.build crashed) Statespace.Central cspec in
  Format.printf
    "induced sub-protocol: weak %b, self %b — a dead relay turns the ring@.\
     into a chain, and the weak-stabilizing ring becomes self-stabilizing.@.@."
    (Checker.weak_stabilizing v) (Checker.self_stabilizing v);

  (* Exact resilience radii: the largest fault budget k with guaranteed
     (adversarial) and probability-1 (probabilistic) recovery. *)
  Format.printf "--- exact resilience radii on the %d-ring@." cn;
  let cspace = Statespace.build cp in
  let metrics =
    Resilience.analyze cspace Statespace.Central cspec ~ks:[ 0; 1; 2; 3; 4; 5 ]
  in
  let r = Resilience.radius_of metrics in
  Format.printf
    "adversarial radius %d, probabilistic radius %d (k up to %d):@.\
     no fault budget has guaranteed recovery, every one recovers with@.\
     probability 1 — weak stabilization as a fault-tolerance number.@.@."
    r.Resilience.adversarial r.Resilience.probabilistic r.Resilience.max_k;

  (* The same resilience question, answered exactly, on a ring whose
     full configuration space (5^12) could never be enumerated: can the
     system recover from THIS corrupted configuration at all? *)
  let big_n = 12 in
  let big = Stabalgo.Token_ring.make ~n:big_n in
  let big_spec = Stabalgo.Token_ring.spec ~n:big_n in
  let bad = Stabalgo.Token_ring.config_with_tokens_at ~n:big_n [ 0; 4; 8 ] in
  Format.printf "--- on-the-fly verification on the %d-ring (5^%d configurations total)@."
    big_n big_n;
  Format.printf "corrupted start with three tokens: %a@." (Protocol.pp_config big) bad;
  let request =
    Analysis.request ~max_configs:1_000_000 ~inits:(Analysis.Inits [ bad ])
      (Analysis.instance big big_spec) Statespace.Central
  in
  match Analysis.reachable request with
  | Ok (space, result) -> (
    let stats = result.Onthefly.stats in
    (match result.Onthefly.possible with
    | Onthefly.Converges ->
      Format.printf
        "every reachable configuration can recover (sub-system: %d configurations, %d \
         edges)@."
        stats.Onthefly.explored stats.Onthefly.edges
    | Onthefly.Counterexample _ -> Format.printf "unexpected: recovery impossible@."
    | Onthefly.Unknown -> Format.printf "budget exhausted@.");
    match result.Onthefly.certain with
    | Onthefly.Counterexample code ->
      Format.printf
        "but an adversarial daemon can avoid recovery forever (witness: %a) —@.\
         weak, not self, stabilization: the paper's Theorem 2 at n = %d.@."
        (Protocol.pp_config big)
        (Statespace.config space code)
        big_n
    | Onthefly.Converges -> Format.printf "unexpected: certain convergence@."
    | Onthefly.Unknown -> Format.printf "budget exhausted@.")
  | Error reason -> Format.printf "no on-the-fly answer: %s@." reason
