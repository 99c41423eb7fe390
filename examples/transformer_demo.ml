(* The Section 4 transformer in action on Algorithm 3 (two-bool), the
   paper's own witness that synchronous steps must remain possible:

   - the raw protocol needs p and q to move TOGETHER out of
     (false, false): any central daemon starves it forever;
   - the transformed protocol converges with probability 1 under both
     the synchronous and the distributed randomized daemons;
   - we measure the expected stabilization times exactly and by
     simulation, and sweep the coin bias.

   Run with: dune exec examples/transformer_demo.exe *)

open Stabcore

let () =
  let protocol = Stabalgo.Two_bool.make () in
  let spec = Stabalgo.Two_bool.spec in
  let space = Statespace.build protocol in
  let legitimate = Statespace.legitimate_set space spec in

  Format.printf "--- raw Algorithm 3@.";
  List.iter
    (fun (name, r) ->
      let chain = Markov.of_space space r in
      Format.printf "%-28s converges w.p.1: %b@." name
        (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate)))
    [
      ("central randomized daemon", Markov.Central_uniform);
      ("distributed randomized daemon", Markov.Distributed_uniform);
      ("synchronous daemon", Markov.Sync);
    ];
  Format.printf
    "(the only way out of (false,false) is the simultaneous step, which a@.\
    \ central daemon never schedules; a deterministic distributed daemon may@.\
    \ also avoid it forever, so the raw protocol is only weak-stabilizing)@.@.";

  (* The transformed protocol. *)
  Format.printf "--- Trans(Algorithm 3)@.";
  let transformed = Transformer.randomize protocol in
  let tspec = Transformer.lift_spec spec in
  let tspace = Statespace.build transformed in
  let tleg = Statespace.legitimate_set tspace tspec in
  List.iter
    (fun (name, r) ->
      let chain = Markov.of_space tspace r in
      match Markov.hitting_stats_result chain ~legitimate:tleg with
      | Ok (stats, _) ->
        Format.printf "%-28s converges w.p.1, mean %.3f steps@." name stats.Markov.mean
      | Error _ -> Format.printf "%-28s still diverges@." name)
    [
      ("central randomized daemon", Markov.Central_uniform);
      ("distributed randomized daemon", Markov.Distributed_uniform);
      ("synchronous daemon", Markov.Sync);
    ];
  Format.printf
    "(central stays divergent — Theorems 8/9 promise the synchronous and@.\
    \ distributed randomized daemons only)@.@.";

  (* A sample transformed run under the synchronous daemon. *)
  let rng = Stabrng.Rng.create 3 in
  let init = Transformer.lift_config [| false; false |] ~coins:[| false; false |] in
  let run =
    Engine.run ~stop_on:tspec ~max_steps:50 rng transformed (Scheduler.synchronous ())
      ~init
  in
  Format.printf "--- one synchronous run of Trans(Algorithm 3) from (false,false)@.%a@.@."
    (Trace.pp transformed) run.Engine.trace;

  (* Coin-bias sweep: higher bias = fewer lost tosses but less
     symmetry-breaking; the sweet spot for this rendezvous is high. *)
  Format.printf "--- coin-bias sweep (synchronous daemon, exact)@.";
  List.iter
    (fun bias ->
      let tp = Transformer.randomize ~coin_bias:bias protocol in
      let sp = Statespace.build tp in
      let leg = Statespace.legitimate_set sp (Transformer.lift_spec spec) in
      let stats = Markov.hitting_stats (Markov.of_space sp Markov.Sync) ~legitimate:leg in
      Format.printf "bias %.2f: mean %.3f steps, worst %.3f@." bias stats.Markov.mean
        stats.Markov.max)
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ];

  (* Cross-validate one point by simulation. *)
  let mc =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:5000 ~max_steps:10_000
      (Stabrng.Rng.create 11) transformed Scheduler.synchronous tspec
  in
  Format.printf "@.Monte-Carlo for bias 0.5 from (false,false): %a@." Montecarlo.pp_result
    mc
