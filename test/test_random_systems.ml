(* Adversarial cross-validation of the checker and the Markov engine on
   randomly generated systems.

   A random protocol is drawn from a seed: each process's single action
   has a random guard table and a random deterministic statement table
   over (own state, neighbor states). Random target sets then exercise
   the analyses far outside the hand-written algorithms:

   - Theorem 7's core: the legitimate set is reachable from every
     configuration iff the uniform randomized chain converges with
     probability 1 (no closure needed for this equivalence);
   - certain convergence implies the absence of fair divergences and of
     dead ends;
   - a strongly-fair divergence is also a weakly-fair one (strongly
     fair executions are weakly fair);
   - best-case distances are finite exactly on configurations that can
     reach the target;
   - worst-case values exist iff certain convergence holds. *)

open Stabcore

(* Build a random deterministic protocol on a small graph. Guards and
   statements are lookup tables keyed by (own state, neighbor state
   vector), so they are well-defined functions of the local view. *)
let random_protocol seed =
  let rng = Stabrng.Rng.create seed in
  let graph =
    match Stabrng.Rng.int rng 3 with
    | 0 -> Stabgraph.Graph.chain 2
    | 1 -> Stabgraph.Graph.chain 3
    | _ -> Stabgraph.Graph.ring 3
  in
  let k = 2 + Stabrng.Rng.int rng 2 in
  (* Table lookups via a stable hash of the local view, fed through a
     per-protocol random permutation — deterministic per seed. *)
  let salt = Stabrng.Rng.int rng 1_000_000 in
  let view cfg p =
    let neighbors = Stabgraph.Graph.neighbors graph p in
    Array.fold_left (fun acc q -> (acc * 31) + cfg.(q)) ((cfg.(p) * 31) + salt) neighbors
  in
  let guard cfg p = (view cfg p * 2654435761) land 0xFF mod 3 <> 0 in
  let statement cfg p = (view cfg p * 40503) land 0xFFFF mod k in
  let act : int Protocol.action =
    {
      label = "R";
      guard;
      result =
        (fun cfg p ->
          let s = statement cfg p in
          (* Avoid identity self-loops so terminal configurations are
             exactly the guard-disabled ones. *)
          [ ((if s = cfg.(p) then (s + 1) mod k else s), 1.0) ]);
    }
  in
  {
    Protocol.name = Printf.sprintf "random-%d" seed;
    graph;
    domain = (fun _ -> List.init k Fun.id);
    actions = [ act ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

(* The randomized counterpart: the same random guard tables, and a
   statement drawing from a two-point distribution with a weight picked
   by the local view. The two points may coincide, which exercises the
   merge of equal outcomes, and some local views keep the deterministic
   singleton. *)
let random_randomized_protocol seed =
  let p = random_protocol seed in
  let act = List.hd p.Protocol.actions in
  let k = List.length (p.Protocol.domain 0) in
  let weights = [| 0.25; 0.5; 0.125; 0.3 |] in
  let result cfg q =
    match act.Protocol.result cfg q with
    | [ (s, _) ] when (s + cfg.(q)) mod 3 <> 0 ->
      let w = weights.((s + (2 * cfg.(q))) mod 4) in
      [ (s, w); ((s + cfg.(q)) mod k, 1.0 -. w) ]
    | dist -> dist
  in
  {
    p with
    Protocol.name = Printf.sprintf "random-coin-%d" seed;
    actions = [ { act with Protocol.result } ];
    randomized = true;
  }

let random_target seed space =
  let rng = Stabrng.Rng.create (seed * 7919) in
  let n = Statespace.count space in
  let target = Array.init n (fun _ -> Stabrng.Rng.bernoulli rng 0.25) in
  (* Guarantee non-emptiness. *)
  target.(Stabrng.Rng.int rng n) <- true;
  target

let qcheck_theorem7_core =
  QCheck.Test.make ~count:120 ~name:"possible convergence = prob-1 reachability (random systems)"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol seed in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let g = Checker.expand space Statespace.Distributed in
      let possible = Result.is_ok (Checker.possible_convergence space g ~legitimate) in
      let chain = Markov.of_space space Markov.Distributed_uniform in
      let prob1 = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate) in
      possible = prob1)

let qcheck_certain_implies_no_fair_divergence =
  QCheck.Test.make ~count:120 ~name:"certain convergence kills fair divergences"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol (seed + 10_000) in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let g = Checker.expand space Statespace.Distributed in
      match Checker.certain_convergence space g ~legitimate with
      | Error _ -> true
      | Ok () ->
        Checker.strongly_fair_divergence space g ~legitimate = None
        && Checker.weakly_fair_divergence space g ~legitimate = None
        && Checker.illegitimate_terminals space ~legitimate = [])

let qcheck_strong_divergence_implies_weak =
  QCheck.Test.make ~count:120 ~name:"strongly-fair divergence implies weakly-fair divergence"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol (seed + 20_000) in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let g = Checker.expand space Statespace.Distributed in
      match Checker.strongly_fair_divergence space g ~legitimate with
      | None -> true
      | Some _ -> Checker.weakly_fair_divergence space g ~legitimate <> None)

let qcheck_best_case_finiteness =
  QCheck.Test.make ~count:120 ~name:"best-case distance finite iff target reachable"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol (seed + 30_000) in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let g = Checker.expand space Statespace.Distributed in
      let dist = Checker.best_case_steps space g ~legitimate in
      let possible = Result.is_ok (Checker.possible_convergence space g ~legitimate) in
      let all_finite = Array.for_all (fun d -> d < max_int) dist in
      possible = all_finite)

let qcheck_worst_case_iff_certain =
  QCheck.Test.make ~count:120 ~name:"worst-case defined iff certain convergence"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol (seed + 40_000) in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let g = Checker.expand space Statespace.Distributed in
      let certain = Result.is_ok (Checker.certain_convergence space g ~legitimate) in
      let defined = Checker.worst_case_steps space g ~legitimate <> None in
      certain = defined)

let qcheck_central_subsumed_by_distributed =
  QCheck.Test.make ~count:100
    ~name:"central-class possible convergence implies distributed-class"
    QCheck.small_int
    (fun seed ->
      (* Every central step is a distributed step, so reachability under
         the central class implies it under the distributed class. *)
      let p = random_protocol (seed + 50_000) in
      let space = Statespace.build p in
      let legitimate = random_target seed space in
      let gc = Checker.expand space Statespace.Central in
      let gd = Checker.expand space Statespace.Distributed in
      match Checker.possible_convergence space gc ~legitimate with
      | Error _ -> true
      | Ok () -> Result.is_ok (Checker.possible_convergence space gd ~legitimate))

let qcheck_markov_rows_sum =
  QCheck.Test.make ~count:100 ~name:"random-system chains are stochastic"
    QCheck.small_int
    (fun seed ->
      let p = random_protocol (seed + 60_000) in
      let space = Statespace.build p in
      let chain = Markov.of_space space Markov.Distributed_uniform in
      let ok = ref true in
      for c = 0 to Markov.states chain - 1 do
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Markov.row chain c) in
        if Float.abs (total -. 1.0) > 1e-9 then ok := false
      done;
      !ok)

let qcheck_simulation_agrees_with_reachability =
  QCheck.Test.make ~count:60 ~name:"simulated runs only visit reachable-from-init configs"
    QCheck.small_int
    (fun seed ->
      (* Sanity link between Engine and Statespace: every configuration
         an execution visits is a successor-chain of the initial one. *)
      let p = random_protocol (seed + 70_000) in
      let space = Statespace.build p in
      let rng = Stabrng.Rng.create seed in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:true ~max_steps:20 rng p (Scheduler.distributed_random ()) ~init
      in
      (* forward reachable set from init *)
      let reachable = Hashtbl.create 64 in
      let rec explore code =
        if not (Hashtbl.mem reachable code) then begin
          Hashtbl.add reachable code ();
          List.iter explore (Statespace.successors space Statespace.Distributed code)
        end
      in
      explore (Statespace.code space init);
      List.for_all
        (fun cfg -> Hashtbl.mem reachable (Statespace.code space cfg))
        (Engine.configs r.Engine.trace))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_theorem7_core;
    QCheck_alcotest.to_alcotest qcheck_certain_implies_no_fair_divergence;
    QCheck_alcotest.to_alcotest qcheck_strong_divergence_implies_weak;
    QCheck_alcotest.to_alcotest qcheck_best_case_finiteness;
    QCheck_alcotest.to_alcotest qcheck_worst_case_iff_certain;
    QCheck_alcotest.to_alcotest qcheck_central_subsumed_by_distributed;
    QCheck_alcotest.to_alcotest qcheck_markov_rows_sum;
    QCheck_alcotest.to_alcotest qcheck_simulation_agrees_with_reachability;
  ]
