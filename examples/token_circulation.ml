(* Token circulation on an anonymous unidirectional ring — the paper's
   Algorithm 1, end to end:

   - Figure 1's legitimate execution (the token walks the ring);
   - Theorem 2: weak-stabilizing but not self-stabilizing, with the
     checker's divergence witness;
   - Theorem 6's strongly fair diverging execution (two alternating
     tokens);
   - convergence under a randomized daemon (Theorem 7), with exact and
     sampled stabilization times.

   Run with: dune exec examples/token_circulation.exe *)

open Stabcore

let n = 6

let () =
  let protocol = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in

  (* Figure 1. *)
  let fig1 = Stabexp.Figures.fig1 () in
  print_string fig1.Stabexp.Figures.rendering;
  Format.printf "token holder per step: %s@.@."
    (String.concat " -> " (List.map string_of_int fig1.Stabexp.Figures.holders));

  (* Theorem 2: exhaustive verdict on the full 4^6 = 4096 configuration
     space, under the distributed scheduler class. *)
  let space = Statespace.build protocol in
  let verdict = Checker.analyze space Statespace.Distributed spec in
  Format.printf "--- Theorem 2 on the %d-ring (%d configurations)@.%a@.@." n
    (Statespace.count space) Checker.pp_verdict verdict;
  (match Lazy.force verdict.Checker.strongly_fair_diverges with
  | Some witness ->
    Format.printf
      "the checker found a strongly-fair divergence witness of %d configurations;@.\
       one of them: %a@.@."
      (List.length witness)
      (Protocol.pp_config protocol)
      (Statespace.config space (List.hd witness))
  | None -> Format.printf "unexpected: no divergence witness@.");

  (* Theorem 6: build the alternating two-token execution concretely
     and watch it forever avoid the legitimate set. *)
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 3 ] in
  let alternator =
    (* Deterministic adversary: move the token we did not move last. *)
    let last = ref (-1) in
    Scheduler.adversary ~name:"alternating-daemon" (fun cfg enabled ->
        ignore cfg;
        let choice =
          match List.filter (fun p -> p <> !last) enabled with
          | p :: _ -> p
          | [] -> List.hd enabled
        in
        last := choice;
        [ choice ])
  in
  let rng = Stabrng.Rng.create 1 in
  let run = Engine.run ~max_steps:24 rng protocol alternator ~init in
  Format.printf "--- Theorem 6: alternating daemon, two tokens, 24 steps@.%a@.@."
    (Trace.pp protocol) run.Engine.trace;
  let still_two =
    List.for_all
      (fun cfg -> List.length (Stabalgo.Token_ring.token_holders ~n cfg) = 2)
      (Engine.configs run.Engine.trace)
  in
  Format.printf "two tokens in every configuration: %b (never converges)@.@." still_two;

  (* Theorem 7: under a randomized daemon the same protocol converges
     with probability 1; exact expected times vs Monte-Carlo. *)
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  (match Markov.converges_with_prob_one chain ~legitimate with
  | Ok () ->
    let times = Markov.expected_hitting_times chain ~legitimate in
    let code = Statespace.code space init in
    Format.printf
      "--- Theorem 7: distributed randomized daemon@.\
       exact expected stabilization from the two-token configuration: %.4f steps@."
      times.(code)
  | Error _ -> Format.printf "unexpected: no probability-1 convergence@.");
  let mc =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:2000 ~max_steps:100_000
      (Stabrng.Rng.create 9) protocol Scheduler.distributed_random spec
  in
  Format.printf "Monte-Carlo estimate over 2000 runs: %a@." Montecarlo.pp_result mc
