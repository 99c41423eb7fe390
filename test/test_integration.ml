(* Integration tests: each case machine-checks one of the paper's
   results end-to-end, combining protocols, state spaces, the checker,
   the Markov analysis and the transformer (see DESIGN.md section 4). *)

open Stabcore

(* Theorem 1: under the synchronous scheduler, deterministic weak and
   self stabilization coincide. For every deterministic protocol and
   every initial configuration, the unique synchronous execution is a
   lasso; the protocol synchronously self-stabilizes iff every lasso
   enters L iff it weakly stabilizes (same executions). We verify that
   possible convergence = certain convergence under the synchronous
   class, on several deterministic protocols. *)
let test_theorem1_sync_equivalence () =
  let check_protocol : type a. string -> a Protocol.t -> a Spec.t -> unit =
   fun name p spec ->
    let space = Statespace.build p in
    let v = Checker.analyze space Statespace.Synchronous spec in
    let weak = Checker.weak_stabilizing v in
    let self = Checker.self_stabilizing v in
    (* Dead-ends outside L break both equally; divergence cycles break
       both equally because the sync execution is unique. *)
    if weak <> self then Alcotest.failf "%s: weak=%b self=%b under sync" name weak self
  in
  check_protocol "token-ring-4" (Stabalgo.Token_ring.make ~n:4) (Stabalgo.Token_ring.spec ~n:4);
  check_protocol "token-ring-5" (Stabalgo.Token_ring.make ~n:5) (Stabalgo.Token_ring.spec ~n:5);
  check_protocol "two-bool" (Stabalgo.Two_bool.make ()) Stabalgo.Two_bool.spec;
  List.iter
    (fun g ->
      check_protocol "leader-tree" (Stabalgo.Leader_tree.make g) (Stabalgo.Leader_tree.spec g);
      check_protocol "centers" (Stabalgo.Centers.make g) (Stabalgo.Centers.spec g))
    (Stabgraph.Graph.all_trees 5);
  check_protocol "dijkstra-4" (Stabalgo.Dijkstra_kstate.make ~n:4 ()) (Stabalgo.Dijkstra_kstate.spec ~n:4)

(* Theorem 2 at scale: every ring size up to 7. *)
let test_theorem2_all_sizes () =
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed
          (Stabalgo.Token_ring.spec ~n)
      in
      Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v);
      Alcotest.(check bool) "not self under strong fairness" false
        (Checker.self_stabilizing_strongly_fair v))
    [ 3; 4; 5; 6; 7 ]

(* Theorem 4 at scale: all 11 trees on 7 nodes would be heavy under the
   distributed class for big domains; 6 nodes exhaustively. *)
let test_theorem4_all_trees_6 () =
  List.iter
    (fun g ->
      let p = Stabalgo.Leader_tree.make g in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed
          (Stabalgo.Leader_tree.spec g)
      in
      Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v))
    (Stabgraph.Graph.all_trees 6)

(* Theorem 5 / Theorem 7 (Gouda): for finite deterministic protocols,
   weak stabilization is equivalent to probability-1 convergence under
   randomized schedulers. We verify both directions on a mixed bag of
   weak-stabilizing and non-weak protocols. *)
let test_theorem7_equivalence () =
  let check : type a. string -> a Protocol.t -> a Spec.t -> unit =
   fun name p spec ->
    let space = Statespace.build p in
    let v = Checker.analyze space Statespace.Distributed spec in
    let weak = Checker.weak_stabilizing v in
    let legitimate = Statespace.legitimate_set space spec in
    let chain = Markov.of_space space Markov.Distributed_uniform in
    let prob1 = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate) in
    let closed =
      Result.is_ok (Checker.check_closure space (Checker.expand space Statespace.Distributed) spec)
    in
    (* weak = closure + possible convergence; prob-1 convergence equals
       possible convergence on finite chains (Theorem 7). *)
    if weak <> (closed && prob1) then
      Alcotest.failf "%s: weak=%b but closed=%b prob1=%b" name weak closed prob1
  in
  check "token-ring-5" (Stabalgo.Token_ring.make ~n:5) (Stabalgo.Token_ring.spec ~n:5);
  check "token-ring-6" (Stabalgo.Token_ring.make ~n:6) (Stabalgo.Token_ring.spec ~n:6);
  check "two-bool" (Stabalgo.Two_bool.make ()) Stabalgo.Two_bool.spec;
  List.iter
    (fun g -> check "leader-tree" (Stabalgo.Leader_tree.make g) (Stabalgo.Leader_tree.spec g))
    (Stabgraph.Graph.all_trees 5)

(* Theorems 8 and 9 at scale: transform every bundled deterministic
   weak-stabilizing protocol and verify probabilistic self-stabilization
   under both the synchronous and the randomized schedulers. *)
let test_theorems8_9_transformer () =
  let check : type a. string -> a Protocol.t -> a Spec.t -> unit =
   fun name p spec ->
    let tp = Transformer.randomize p in
    let space = Statespace.build tp in
    let tspec = Transformer.lift_spec spec in
    let legitimate = Statespace.legitimate_set space tspec in
    List.iter
      (fun (rname, r) ->
        let chain = Markov.of_space space r in
        if not (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate)) then
          Alcotest.failf "%s under %s does not converge w.p.1" name rname)
      (* Theorems 8 and 9 cover the synchronous and the distributed
         randomized schedulers. Central randomization is NOT covered:
         two-bool needs simultaneous activations, which a central
         daemon never provides (see test_central_randomized_remarks). *)
      [ ("sync", Markov.Sync); ("distributed-random", Markov.Distributed_uniform) ];
    (* Strong closure of the lifted legitimate set (Lemma 1). *)
    let g = Checker.expand space Statespace.Distributed in
    Alcotest.(check bool) (name ^ " closure") true
      (Result.is_ok (Checker.check_closure space g tspec))
  in
  check "token-ring-4" (Stabalgo.Token_ring.make ~n:4) (Stabalgo.Token_ring.spec ~n:4);
  check "two-bool" (Stabalgo.Two_bool.make ()) Stabalgo.Two_bool.spec;
  List.iter
    (fun g -> check "leader-tree" (Stabalgo.Leader_tree.make g) (Stabalgo.Leader_tree.spec g))
    (Stabgraph.Graph.all_trees 4)

(* The paper's footnote on Algorithms 1 and 2 under a CENTRAL
   randomized scheduler: they are still probabilistically
   self-stabilizing (no simultaneous activation needed). Two-bool is
   the counter-example that DOES need simultaneity. *)
let test_central_randomized_remarks () =
  let converges : type a. a Protocol.t -> a Spec.t -> bool =
   fun p spec ->
    let space = Statespace.build p in
    let legitimate = Statespace.legitimate_set space spec in
    let chain = Markov.of_space space Markov.Central_uniform in
    Result.is_ok (Markov.converges_with_prob_one chain ~legitimate)
  in
  Alcotest.(check bool) "Algorithm 1 converges centrally" true
    (converges (Stabalgo.Token_ring.make ~n:5) (Stabalgo.Token_ring.spec ~n:5));
  Alcotest.(check bool) "Algorithm 2 converges centrally" true
    (converges (Stabalgo.Leader_tree.make (Stabgraph.Graph.chain 4))
       (Stabalgo.Leader_tree.spec (Stabgraph.Graph.chain 4)));
  Alcotest.(check bool) "Algorithm 3 does not" false
    (converges (Stabalgo.Two_bool.make ()) Stabalgo.Two_bool.spec)

(* Expected stabilization times are consistent across the two
   independent implementations (exact solve vs Monte-Carlo) for the
   transformed token ring — the headline quantitative experiment. *)
let test_transformed_hitting_time_cross_validation () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let tp = Transformer.randomize p in
  let spec = Transformer.lift_spec (Stabalgo.Token_ring.spec ~n) in
  let space = Statespace.build tp in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let h = Markov.expected_hitting_times chain ~legitimate in
  let init =
    Transformer.lift_config
      (Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 2 ])
      ~coins:(Array.make n false)
  in
  let code = Statespace.code space init in
  let rng = Stabrng.Rng.create 777 in
  let mc =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:3000 ~max_steps:200_000 rng tp
      Scheduler.distributed_random spec
  in
  match mc.Montecarlo.summary with
  | None -> Alcotest.fail "no converged runs"
  | Some s ->
    let slack = (5.0 *. s.Stabstats.Stats.stderr) +. 1e-6 in
    if Float.abs (s.Stabstats.Stats.mean -. h.(code)) > slack then
      Alcotest.failf "MC %f vs exact %f" s.Stabstats.Stats.mean h.(code)

(* The transformer costs roughly a factor 1/bias more steps under the
   central randomized scheduler (each activation succeeds with
   probability = bias). *)
let test_transformer_overhead_shape () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space spec in
  let base_chain = Markov.of_space space Markov.Central_uniform in
  let base = (Markov.hitting_stats base_chain ~legitimate).Markov.mean in
  let tp = Transformer.randomize p in
  let tspace = Statespace.build tp in
  let tspec = Transformer.lift_spec spec in
  let tleg = Statespace.legitimate_set tspace tspec in
  let tchain = Markov.of_space tspace Markov.Central_uniform in
  (* Average over coin components of the corresponding initial states =
     mean over all states whose projection matches; we just compare
     means over the whole space. *)
  let transformed = (Markov.hitting_stats tchain ~legitimate:tleg).Markov.mean in
  Alcotest.(check bool)
    (Printf.sprintf "transformed (%f) about 2x slower than raw (%f)" transformed base)
    true
    (transformed > 1.5 *. base && transformed < 3.5 *. base)

let suite =
  [
    Alcotest.test_case "Theorem 1 (sync equivalence)" `Slow test_theorem1_sync_equivalence;
    Alcotest.test_case "Theorem 2 (rings 3..7)" `Slow test_theorem2_all_sizes;
    Alcotest.test_case "Theorem 4 (trees of 6)" `Slow test_theorem4_all_trees_6;
    Alcotest.test_case "Theorem 7 (weak = prob-1)" `Slow test_theorem7_equivalence;
    Alcotest.test_case "Theorems 8/9 (transformer)" `Slow test_theorems8_9_transformer;
    Alcotest.test_case "central randomized remarks" `Quick test_central_randomized_remarks;
    Alcotest.test_case "exact vs MC hitting times" `Slow test_transformed_hitting_time_cross_validation;
    Alcotest.test_case "transformer overhead shape" `Quick test_transformer_overhead_shape;
  ]
