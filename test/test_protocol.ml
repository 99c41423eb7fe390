(* Tests for the guarded-command protocol model. *)

open Stabcore

let test_enabled_processes () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.(check (list int)) "both enabled when equal" [ 0; 1 ]
    (Protocol.enabled_processes p [| 1; 1 |]);
  Alcotest.(check (list int)) "none enabled when distinct" []
    (Protocol.enabled_processes p [| 0; 2 |]);
  Alcotest.(check bool) "terminal" true (Protocol.is_terminal p [| 0; 2 |])

let test_enabled_action () =
  let p = Fixtures.mod3_protocol () in
  (match Protocol.enabled_action p [| 1; 1 |] 0 with
  | Some a -> Alcotest.(check string) "label" "bump" a.Protocol.label
  | None -> Alcotest.fail "expected enabled action");
  Alcotest.(check bool) "disabled" true (Protocol.enabled_action p [| 0; 1 |] 0 = None)

let test_step_single () =
  let p = Fixtures.mod3_protocol () in
  match Protocol.step_outcomes p [| 1; 1 |] [ 0 ] with
  | [ (cfg, w) ] ->
    Alcotest.(check (float 1e-9)) "prob 1" 1.0 w;
    Alcotest.(check (array int)) "process 0 bumps" [| 2; 1 |] cfg
  | outcomes -> Alcotest.failf "expected one outcome, got %d" (List.length outcomes)

let test_step_composite_reads_pre_state () =
  (* Both processes read the old configuration: from (1,1) the
     synchronous step yields (2,2), not a chained update. *)
  let p = Fixtures.mod3_protocol () in
  match Protocol.step_outcomes p [| 1; 1 |] [ 0; 1 ] with
  | [ (cfg, _) ] -> Alcotest.(check (array int)) "atomic composite" [| 2; 2 |] cfg
  | _ -> Alcotest.fail "expected a unique outcome"

let test_step_skips_disabled () =
  let p = Fixtures.mod3_protocol () in
  match Protocol.step_outcomes p [| 0; 1 |] [ 0; 1 ] with
  | [ (cfg, _) ] -> Alcotest.(check (array int)) "no-op" [| 0; 1 |] cfg
  | _ -> Alcotest.fail "expected a unique outcome"

let test_step_does_not_mutate_input () =
  let p = Fixtures.mod3_protocol () in
  let cfg = [| 1; 1 |] in
  ignore (Protocol.step_outcomes p cfg [ 0; 1 ]);
  Alcotest.(check (array int)) "input unchanged" [| 1; 1 |] cfg

let test_probabilistic_outcomes () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let outcomes = Protocol.step_outcomes p [| 0 |] [ 0 ] in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 outcomes in
  Alcotest.(check (float 1e-9)) "probs sum to 1" 1.0 total;
  Alcotest.(check int) "three branches" 3 (List.length outcomes)

let test_outcome_merging () =
  (* Two processes with identical two-branch coin results produce 4 raw
     outcomes; equal configurations must be merged. *)
  let flip : bool Protocol.action =
    {
      label = "flip";
      guard = (fun _ _ -> true);
      result = (fun _ _ -> [ (false, 0.5); (true, 0.5) ]);
    }
  in
  let p : bool Protocol.t =
    {
      Protocol.name = "double-coin";
      graph = Stabgraph.Graph.chain 2;
      domain = (fun _ -> [ false; true ]);
      actions = [ flip ];
      equal = Bool.equal;
      pp = Format.pp_print_bool;
      randomized = true;
    }
  in
  let outcomes = Protocol.step_outcomes p [| false; false |] [ 0; 1 ] in
  Alcotest.(check int) "four distinct configs" 4 (List.length outcomes);
  List.iter
    (fun (_, w) -> Alcotest.(check (float 1e-9)) "each quarter" 0.25 w)
    outcomes

let test_step_sample_matches_support () =
  let p = Fixtures.coin_protocol () in
  let rng = Stabrng.Rng.create 1 in
  for _ = 1 to 200 do
    let next = Protocol.step_sample rng p [| 0 |] [ 0 ] in
    Alcotest.(check bool) "sample in domain" true (List.mem next.(0) [ 0; 1; 2 ])
  done

let test_step_sample_respects_probabilities () =
  let p = Fixtures.coin_protocol ~p_stop:0.25 () in
  let rng = Stabrng.Rng.create 2 in
  let stops = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if (Protocol.step_sample rng p [| 0 |] [ 0 ]).(0) = 2 then incr stops
  done;
  let ratio = float_of_int !stops /. float_of_int n in
  Alcotest.(check bool) "stop ratio near 0.25" true (ratio > 0.23 && ratio < 0.27)

let test_random_config_in_domain () =
  let p = Fixtures.ragged_domains () in
  let rng = Stabrng.Rng.create 3 in
  for _ = 1 to 100 do
    let cfg = Protocol.random_config rng p in
    Array.iteri
      (fun i s ->
        if not (List.mem s (p.Protocol.domain i)) then
          Alcotest.failf "state %d outside domain of %d" s i)
      cfg
  done

let test_equal_config () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.(check bool) "equal" true (Protocol.equal_config p [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "not equal" false (Protocol.equal_config p [| 1; 2 |] [| 2; 1 |]);
  Alcotest.(check bool) "length mismatch" false (Protocol.equal_config p [| 1 |] [| 1; 2 |])

let test_exclusive_guards () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.(check bool) "single action protocols are exclusive" true
    (Protocol.exclusive_guards_violation p [| 1; 1 |] = None);
  (* A protocol with overlapping guards is flagged. *)
  let overlap : int Protocol.t =
    {
      p with
      Protocol.actions =
        [
          { label = "x"; guard = (fun _ _ -> true); result = (fun cfg p -> [ (cfg.(p), 1.0) ]) };
          { label = "y"; guard = (fun _ _ -> true); result = (fun cfg p -> [ (cfg.(p), 1.0) ]) };
        ];
    }
  in
  Alcotest.(check bool) "overlap detected" true
    (Protocol.exclusive_guards_violation overlap [| 0; 0 |] = Some 0)

let test_algorithm_guards_exclusive_everywhere () =
  (* Exhaustively verify guard exclusivity for the paper's protocols on
     small instances. *)
  let check_protocol name p =
    let enc = Encoding.of_protocol p in
    Encoding.iter enc (fun _ cfg ->
        match Protocol.exclusive_guards_violation p cfg with
        | None -> ()
        | Some proc -> Alcotest.failf "%s: overlapping guards at process %d" name proc)
  in
  check_protocol "token-ring" (Stabalgo.Token_ring.make ~n:5);
  List.iter
    (fun g -> check_protocol "leader-tree" (Stabalgo.Leader_tree.make g))
    (Stabgraph.Graph.all_trees 5);
  check_protocol "two-bool" (Stabalgo.Two_bool.make ());
  check_protocol "dijkstra" (Stabalgo.Dijkstra_kstate.make ~n:4 ());
  List.iter
    (fun g -> check_protocol "center-leader" (Stabalgo.Center_leader.make g))
    (Stabgraph.Graph.all_trees 4)

let test_pp_config () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.(check string) "rendering" "[1 2]"
    (Format.asprintf "%a" (Protocol.pp_config p) [| 1; 2 |])

let suite =
  [
    Alcotest.test_case "enabled processes" `Quick test_enabled_processes;
    Alcotest.test_case "enabled action" `Quick test_enabled_action;
    Alcotest.test_case "single step" `Quick test_step_single;
    Alcotest.test_case "composite step reads pre-state" `Quick test_step_composite_reads_pre_state;
    Alcotest.test_case "step skips disabled" `Quick test_step_skips_disabled;
    Alcotest.test_case "step is pure" `Quick test_step_does_not_mutate_input;
    Alcotest.test_case "probabilistic outcomes" `Quick test_probabilistic_outcomes;
    Alcotest.test_case "outcome merging" `Quick test_outcome_merging;
    Alcotest.test_case "sample support" `Quick test_step_sample_matches_support;
    Alcotest.test_case "sample probabilities" `Slow test_step_sample_respects_probabilities;
    Alcotest.test_case "random config in domain" `Quick test_random_config_in_domain;
    Alcotest.test_case "equal_config" `Quick test_equal_config;
    Alcotest.test_case "exclusive guards detector" `Quick test_exclusive_guards;
    Alcotest.test_case "algorithm guards exclusive" `Quick test_algorithm_guards_exclusive_everywhere;
    Alcotest.test_case "pp_config" `Quick test_pp_config;
  ]
