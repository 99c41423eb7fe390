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
        && Checker.weakly_fair_divergence space g ~legitimate = None)

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

(* The synchronous analyses against a naive walk built from
   [Protocol.enabled_processes], [Protocol.step_outcomes] and
   [Encoding] alone. A "lazy" variant of each random protocol lets a
   process keep its state (when its state plus its index is even), so
   some configurations step to themselves (cycle length 1); the
   guard-disabled ones are terminal (length 0). *)
let lazy_protocol p =
  let act = List.hd p.Protocol.actions in
  let result cfg q =
    if (cfg.(q) + q) mod 2 = 0 then [ (cfg.(q), 1.0) ] else act.Protocol.result cfg q
  in
  { p with Protocol.name = p.Protocol.name ^ "-lazy"; actions = [ { act with Protocol.result } ] }

(* The one synchronous successor code of [c], or [None] at a terminal
   configuration. *)
let naive_sync_step space c =
  let p = Statespace.protocol space and enc = Statespace.encoding space in
  let cfg = Encoding.decode enc c in
  match Protocol.enabled_processes p cfg with
  | [] -> None
  | enabled -> (
    match Protocol.step_outcomes p cfg enabled with
    | [ (cfg', _) ] -> Some (Encoding.encode enc cfg')
    | _ -> Alcotest.fail "deterministic protocol with several outcomes")

(* The execution from [init] as a lasso, by list search. *)
let naive_lasso space init =
  let rec go visited c =
    match List.find_index (( = ) c) visited with
    | Some i -> (List.filteri (fun j _ -> j < i) visited, List.filteri (fun j _ -> j >= i) visited)
    | None -> (
      match naive_sync_step space c with
      | None -> (visited @ [ c ], [])
      | Some c' -> go (visited @ [ c ]) c')
  in
  go [] init

let naive_census space =
  let lengths =
    List.init (Statespace.count space) (fun c -> List.length (snd (naive_lasso space c)))
  in
  List.sort_uniq compare lengths
  |> List.map (fun l -> (l, List.length (List.filter (( = ) l) lengths)))

let naive_closed_set space member =
  let n = Statespace.count space in
  let enc = Statespace.encoding space in
  let inside c = member (Encoding.decode enc c) in
  List.find_map
    (fun c ->
      if not (inside c) then None
      else
        match naive_sync_step space c with
        | Some c' when not (inside c') -> Some (c, c')
        | _ -> None)
    (List.init n Fun.id)

let test_synchronous_analyses_match_naive_walk () =
  let self_loops = ref 0 and terminals = ref 0 and closed = ref 0 and open_ = ref 0 in
  for seed = 0 to 59 do
    List.iter
      (fun p ->
        let space = Statespace.build p in
        let enc = Statespace.encoding space in
        let census = Checker.sync_orbit_census space in
        if census <> naive_census space then
          Alcotest.failf "%s: census differs from the naive walk" p.Protocol.name;
        List.iter
          (fun (l, k) ->
            if l = 1 then self_loops := !self_loops + k;
            if l = 0 then terminals := !terminals + k)
          census;
        for c = 0 to Statespace.count space - 1 do
          let lasso = Checker.synchronous_lasso space ~init:c in
          if lasso <> naive_lasso space c then
            Alcotest.failf "%s: lasso from %d differs from the naive walk" p.Protocol.name c
        done;
        (* A random set (rarely closed) and the cycle of one lasso
           (always closed). *)
        let target = random_target seed space in
        let cycle = snd (naive_lasso space 0) in
        List.iter
          (fun member ->
            let found = Checker.sync_closed_set space member in
            if found <> naive_closed_set space member then
              Alcotest.failf "%s: closed-set answer differs from the naive walk" p.Protocol.name;
            if found = None then incr closed else incr open_)
          [
            (fun cfg -> target.(Encoding.encode enc cfg));
            (fun cfg -> List.mem (Encoding.encode enc cfg) cycle);
          ])
      [ random_protocol (seed + 80_000); lazy_protocol (random_protocol (seed + 80_000)) ]
  done;
  if !self_loops = 0 || !terminals = 0 || !closed = 0 || !open_ = 0 then
    Alcotest.failf
      "coverage: %d self-loop and %d terminal configurations, %d closed and %d open sets"
      !self_loops !terminals !closed !open_

let suite =
  [
    Alcotest.test_case "synchronous analyses = naive walk" `Quick
      test_synchronous_analyses_match_naive_walk;
    Qcheck_seeded.to_alcotest qcheck_theorem7_core;
    Qcheck_seeded.to_alcotest qcheck_certain_implies_no_fair_divergence;
    Qcheck_seeded.to_alcotest qcheck_strong_divergence_implies_weak;
    Qcheck_seeded.to_alcotest qcheck_best_case_finiteness;
    Qcheck_seeded.to_alcotest qcheck_worst_case_iff_certain;
    Qcheck_seeded.to_alcotest qcheck_central_subsumed_by_distributed;
    Qcheck_seeded.to_alcotest qcheck_markov_rows_sum;
    Qcheck_seeded.to_alcotest qcheck_simulation_agrees_with_reachability;
  ]
