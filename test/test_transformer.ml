(* Tests for the Section 4 weak-to-probabilistic transformer. *)

open Stabcore

let check_float = Alcotest.(check (float 1e-9))

let test_domain_doubles () =
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize p in
  Alcotest.(check int) "domain doubled" 6 (List.length (tp.Protocol.domain 0));
  Alcotest.(check bool) "randomized" true tp.Protocol.randomized;
  Alcotest.(check string) "name suffixed" "mod3+trans" tp.Protocol.name

let test_guard_ignores_coin () =
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize p in
  let open Transformer in
  let base = [| { core = 1; coin = false }; { core = 1; coin = true } |] in
  Alcotest.(check bool) "enabled regardless of coins" true
    (Protocol.is_enabled tp base 0 && Protocol.is_enabled tp base 1);
  let term = [| { core = 0; coin = true }; { core = 2; coin = true } |] in
  Alcotest.(check bool) "disabled like the original" true (Protocol.is_terminal tp term)

let test_action_labels () =
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize p in
  Alcotest.(check (list string)) "labels wrapped" [ "Trans(bump)" ]
    (List.map (fun a -> a.Protocol.label) tp.Protocol.actions)

let test_coin_toss_semantics () =
  (* From core state 1 (neighbor 1), the original action writes 2. The
     transformed action gives (2, true) w.p. 1/2 and (1, false) w.p. 1/2. *)
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize p in
  let open Transformer in
  let cfg = [| { core = 1; coin = true }; { core = 1; coin = false } |] in
  let outcomes = Protocol.step_outcomes tp cfg [ 0 ] in
  Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
  List.iter
    (fun (next, w) ->
      check_float "half" 0.5 w;
      match (next.(0).core, next.(0).coin) with
      | 2, true -> ()
      | 1, false -> ()
      | core, coin -> Alcotest.failf "unexpected outcome (%d, %b)" core coin)
    outcomes

let test_coin_loss_keeps_core_even_if_coin_was_true () =
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize p in
  let open Transformer in
  let cfg = [| { core = 1; coin = true }; { core = 1; coin = true } |] in
  let outcomes = Protocol.step_outcomes tp cfg [ 0 ] in
  let lose =
    List.find_opt (fun (next, _) -> next.(0).coin = false) outcomes
  in
  match lose with
  | Some (next, w) ->
    check_float "loss prob" 0.5 w;
    Alcotest.(check int) "core unchanged" 1 next.(0).core
  | None -> Alcotest.fail "losing branch missing"

let test_biased_coin () =
  let p = Fixtures.mod3_protocol () in
  let tp = Transformer.randomize ~coin_bias:0.25 p in
  let open Transformer in
  let cfg = [| { core = 1; coin = false }; { core = 1; coin = false } |] in
  let outcomes = Protocol.step_outcomes tp cfg [ 0 ] in
  List.iter
    (fun (next, w) ->
      if next.(0).coin then check_float "win prob" 0.25 w
      else check_float "loss prob" 0.75 w)
    outcomes

let test_bias_validation () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.check_raises "bias 0" (Invalid_argument "Transformer.randomize: coin_bias outside (0, 1)")
    (fun () -> ignore (Transformer.randomize ~coin_bias:0.0 p));
  Alcotest.check_raises "bias 1" (Invalid_argument "Transformer.randomize: coin_bias outside (0, 1)")
    (fun () -> ignore (Transformer.randomize ~coin_bias:1.0 p))

(* The original variables of a transformed configuration. *)
let project cfg = Array.map (fun s -> s.Transformer.core) cfg

let test_lift_project_config () =
  let cores = [| 1; 2; 3 |] in
  let lifted = Transformer.lift_config cores ~coins:[| true; false; true |] in
  Alcotest.(check (array int)) "project inverts lift" cores (project lifted);
  Alcotest.(check (array bool)) "coins kept" [| true; false; true |]
    (Array.map (fun s -> s.Transformer.coin) lifted);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Transformer.lift_config: length mismatch") (fun () ->
      ignore (Transformer.lift_config cores ~coins:[| true |]))

let test_lift_spec () =
  let spec = Fixtures.mod3_spec in
  let lifted = Transformer.lift_spec spec in
  let open Transformer in
  Alcotest.(check bool) "legitimate through projection" true
    (lifted.Spec.legitimate [| { core = 0; coin = true }; { core = 1; coin = false } |]);
  Alcotest.(check bool) "illegitimate preserved" false
    (lifted.Spec.legitimate [| { core = 1; coin = false }; { core = 1; coin = false } |])

(* Theorem 8: the transformed system is probabilistically
   self-stabilizing under the synchronous scheduler. *)
let test_theorem8_token_ring () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let tp = Transformer.randomize p in
  let space = Statespace.build tp in
  let spec = Transformer.lift_spec (Stabalgo.Token_ring.spec ~n) in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Sync in
  Alcotest.(check bool) "sync prob-1 convergence" true
    (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate));
  (* Strong closure (Lemma 1). *)
  let g = Checker.expand space Statespace.Synchronous in
  Alcotest.(check bool) "closure" true (Result.is_ok (Checker.check_closure space g spec))

(* Theorem 9: same under the distributed randomized scheduler. *)
let test_theorem9_token_ring () =
  let n = 4 in
  let tp = Transformer.randomize (Stabalgo.Token_ring.make ~n) in
  let space = Statespace.build tp in
  let legitimate =
    Statespace.legitimate_set space (Transformer.lift_spec (Stabalgo.Token_ring.spec ~n))
  in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  Alcotest.(check bool) "distributed prob-1 convergence" true
    (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate))

let test_theorem8_two_bool () =
  (* Algorithm 3 is the paper's witness that synchronous steps must stay
     possible: the transformed system must converge under sync. *)
  let tp = Transformer.randomize (Stabalgo.Two_bool.make ()) in
  let space = Statespace.build tp in
  let legitimate =
    Statespace.legitimate_set space (Transformer.lift_spec Stabalgo.Two_bool.spec)
  in
  let sync = Markov.of_space space Markov.Sync in
  Alcotest.(check bool) "sync converges" true
    (Result.is_ok (Markov.converges_with_prob_one sync ~legitimate));
  let distributed = Markov.of_space space Markov.Distributed_uniform in
  Alcotest.(check bool) "distributed converges" true
    (Result.is_ok (Markov.converges_with_prob_one distributed ~legitimate));
  (* But central randomized still cannot fire both simultaneously. *)
  let central = Markov.of_space space Markov.Central_uniform in
  Alcotest.(check bool) "central still fails" false
    (Result.is_ok (Markov.converges_with_prob_one central ~legitimate))

let test_transformed_leader_tree () =
  let g = Stabgraph.Graph.chain 4 in
  let tp = Transformer.randomize (Stabalgo.Leader_tree.make g) in
  let space = Statespace.build tp in
  let legitimate =
    Statespace.legitimate_set space (Transformer.lift_spec (Stabalgo.Leader_tree.spec g))
  in
  (* Figure 3 shows the raw protocol oscillates synchronously; the
     transformed one converges with probability 1. *)
  let sync = Markov.of_space space Markov.Sync in
  Alcotest.(check bool) "sync prob-1" true
    (Result.is_ok (Markov.converges_with_prob_one sync ~legitimate))

let test_transformer_preserves_weak_stabilization () =
  (* The transformed system still possibly converges (its positive-prob
     graph contains the original's transitions). *)
  let n = 4 in
  let tp = Transformer.randomize (Stabalgo.Token_ring.make ~n) in
  let space = Statespace.build tp in
  let spec = Transformer.lift_spec (Stabalgo.Token_ring.spec ~n) in
  let v = Checker.analyze space Statespace.Distributed spec in
  Alcotest.(check bool) "weak stabilizing" true (Checker.weak_stabilizing v)

let suite =
  [
    Alcotest.test_case "domain doubles" `Quick test_domain_doubles;
    Alcotest.test_case "guard ignores coin" `Quick test_guard_ignores_coin;
    Alcotest.test_case "action labels" `Quick test_action_labels;
    Alcotest.test_case "coin toss semantics" `Quick test_coin_toss_semantics;
    Alcotest.test_case "coin loss keeps core" `Quick test_coin_loss_keeps_core_even_if_coin_was_true;
    Alcotest.test_case "biased coin" `Quick test_biased_coin;
    Alcotest.test_case "bias validation" `Quick test_bias_validation;
    Alcotest.test_case "lift/project config" `Quick test_lift_project_config;
    Alcotest.test_case "lift spec" `Quick test_lift_spec;
    Alcotest.test_case "Theorem 8 (token ring)" `Quick test_theorem8_token_ring;
    Alcotest.test_case "Theorem 9 (token ring)" `Quick test_theorem9_token_ring;
    Alcotest.test_case "Theorem 8 (two-bool)" `Quick test_theorem8_two_bool;
    Alcotest.test_case "transformed leader tree" `Quick test_transformed_leader_tree;
    Alcotest.test_case "transformer preserves weak" `Quick test_transformer_preserves_weak_stabilization;
  ]

(* Trace-level preservation: any execution of the transformed protocol
   projects, after deleting stutters, onto a legal execution of the
   original protocol (the simulation behind Lemma 2). *)
let qcheck_projection_simulates_original =
  QCheck.Test.make ~count:100 ~name:"transformed runs project to original runs"
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let p = Stabalgo.Token_ring.make ~n in
      let tp = Transformer.randomize p in
      let rng = Stabrng.Rng.create seed in
      let init = Protocol.random_config rng tp in
      let r =
        Engine.run ~record:true ~max_steps:25 rng tp (Scheduler.distributed_random ())
          ~init
      in
      (* Walk the trace: each step's projection is either equal to the
         previous projection (stutter) or reachable from it by one
         original-protocol step activating the winning processes. *)
      List.for_all
        (fun e ->
          let before = project e.Engine.before in
          let after = project e.Engine.after in
          if Protocol.equal_config p before after then true
          else begin
            (* The winners are the processes whose coin landed true. *)
            let winners =
              List.filter
                (fun (q, _) -> e.Engine.after.(q).Transformer.coin)
                e.Engine.fired
              |> List.map fst
            in
            winners <> []
            &&
            match Protocol.step_outcomes p before winners with
            | [ (expected, _) ] -> Protocol.equal_config p expected after
            | _ -> false
          end)
        r.Engine.trace.Engine.events)

let qcheck_transformed_never_invents_core_states =
  QCheck.Test.make ~count:100 ~name:"transformed runs stay within the original domain"
    QCheck.(pair small_int (int_range 3 6))
    (fun (seed, n) ->
      let p = Stabalgo.Token_ring.make ~n in
      let tp = Transformer.randomize p in
      let rng = Stabrng.Rng.create (seed + 1000) in
      let init = Protocol.random_config rng tp in
      let r =
        Engine.run ~record:false ~max_steps:30 rng tp (Scheduler.synchronous ()) ~init
      in
      Array.for_all
        (fun s ->
          List.exists (p.Protocol.equal s.Transformer.core) (p.Protocol.domain 0))
        r.Engine.final)

let projection_suite =
  [
    QCheck_alcotest.to_alcotest qcheck_projection_simulates_original;
    QCheck_alcotest.to_alcotest qcheck_transformed_never_invents_core_states;
  ]

let suite = suite @ projection_suite
