(* Tests for the Markov-chain analysis: construction, BSCCs,
   probability-1 convergence and expected hitting times (validated
   against hand-computed chains). *)

open Stabcore

let check_float = Alcotest.(check (float 1e-7))

let rows_sum_to_one chain =
  let n = Markov.states chain in
  let ok = ref true in
  for c = 0 to n - 1 do
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Markov.row chain c) in
    if Float.abs (total -. 1.0) > 1e-9 then ok := false
  done;
  !ok

let test_of_rows_validation () =
  Alcotest.check_raises "out of range" (Invalid_argument "Markov.of_rows: target out of range")
    (fun () -> ignore (Markov.of_rows [| [ (5, 1.0) ] |]));
  Alcotest.check_raises "bad sum" (Invalid_argument "Markov.of_rows: row does not sum to 1")
    (fun () -> ignore (Markov.of_rows [| [ (0, 0.5) ] |]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Markov.of_rows: non-positive weight")
    (fun () -> ignore (Markov.of_rows [| [ (0, 0.0); (0, 1.0) ] |]))

let test_of_rows_merges_and_absorbs () =
  let chain = Markov.of_rows [| [ (1, 0.5); (1, 0.5) ]; [] |] in
  Alcotest.(check (list (pair int (float 1e-9)))) "merged" [ (1, 1.0) ] (Markov.row chain 0);
  Alcotest.(check (list (pair int (float 1e-9)))) "absorbing" [ (1, 1.0) ] (Markov.row chain 1)

let test_of_space_rows_sum () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  let space = Statespace.build p in
  List.iter
    (fun r -> Alcotest.(check bool) "rows sum to 1" true (rows_sum_to_one (Markov.of_space space r)))
    [ Markov.Central_uniform; Markov.Distributed_uniform; Markov.Sync ]

let test_terminal_states_absorbing () =
  let p = Stabalgo.Two_bool.make () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Central_uniform in
  (* (true, true) is terminal; find its code. *)
  let code = Statespace.code space [| true; true |] in
  Alcotest.(check (list (pair int (float 1e-9)))) "absorbing" [ (code, 1.0) ]
    (Markov.row chain code)

let test_central_uniform_probabilities () =
  (* mod3 config (1,1): both processes enabled; central uniform gives
     each successor probability 1/2. *)
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Central_uniform in
  let code = Statespace.code space [| 1; 1 |] in
  let row = Markov.row chain code in
  Alcotest.(check int) "two successors" 2 (List.length row);
  List.iter (fun (_, w) -> check_float "half each" 0.5 w) row

let test_distributed_uniform_probabilities () =
  (* mod3 (1,1): three subsets, so successors (2,1), (1,2), (2,2) each
     with probability 1/3. *)
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let code = Statespace.code space [| 1; 1 |] in
  let row = Markov.row chain code in
  Alcotest.(check int) "three successors" 3 (List.length row);
  List.iter (fun (_, w) -> check_float "third each" (1.0 /. 3.0) w) row

(* Hand-built gambler's-ruin chain: states 0..3, 3 absorbing target,
   0 reflecting: expected hitting of 3 from i is known. *)
let gambler () =
  Markov.of_rows
    [|
      [ (1, 1.0) ];
      [ (0, 0.5); (2, 0.5) ];
      [ (1, 0.5); (3, 0.5) ];
      [ (3, 1.0) ];
    |]

let test_gambler_hitting_times () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  let h = Markov.expected_hitting_times chain ~legitimate in
  (* Solve by hand: h0 = 1 + h1; h1 = 1 + (h0 + h2)/2; h2 = 1 + h1/2.
     => h0 = 9, h1 = 8, h2 = 5. *)
  check_float "h0" 9.0 h.(0);
  check_float "h1" 8.0 h.(1);
  check_float "h2" 5.0 h.(2);
  check_float "h3" 0.0 h.(3)

let test_gambler_exact_vs_iterative () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  let exact = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
  let iter =
    Markov.expected_hitting_times
      ~method_:
        (Markov.Sparse
           { kind = Markov.Gauss_seidel; tolerance = 1e-12; max_sweeps = 1_000_000 })
      chain ~legitimate
  in
  Array.iteri (fun i e -> check_float "methods agree" e iter.(i)) exact;
  List.iter
    (fun kind ->
      let sparse =
        Markov.expected_hitting_times
          ~method_:(Markov.Sparse { kind; tolerance = 1e-12; max_sweeps = 1_000_000 })
          chain ~legitimate
      in
      Array.iteri (fun i e -> check_float "sparse agrees" e sparse.(i)) exact)
    [ Markov.Gauss_seidel; Markov.Jacobi ]

let test_hitting_requires_convergence () =
  (* Two absorbing states, only one legitimate: state 0 never reaches it. *)
  let chain = Markov.of_rows [| [ (0, 1.0) ]; [ (1, 1.0) ] |] in
  Alcotest.check_raises "diverging state"
    (Invalid_argument "Markov.expected_hitting_times: state 0 cannot reach the legitimate set")
    (fun () ->
      ignore (Markov.expected_hitting_times chain ~legitimate:[| false; true |]))

let test_bsccs () =
  (* 0 -> 1 -> 2 <-> 3 (cycle), 4 absorbing, 1 -> 4. *)
  let chain =
    Markov.of_rows
      [|
        [ (1, 1.0) ];
        [ (2, 0.5); (4, 0.5) ];
        [ (3, 1.0) ];
        [ (2, 1.0) ];
        [ (4, 1.0) ];
      |]
  in
  let bs = List.sort compare (Markov.bsccs chain) in
  Alcotest.(check (list (list int))) "two bottom components" [ [ 2; 3 ]; [ 4 ] ] bs

let test_reaches () =
  let chain = Markov.of_rows [| [ (1, 1.0) ]; [ (1, 1.0) ]; [ (2, 1.0) ] |] in
  let r = Markov.reaches chain ~target:[| false; true; false |] in
  Alcotest.(check (array bool)) "backward reachability" [| true; true; false |] r

let test_converges_with_prob_one () =
  let good = gambler () in
  Alcotest.(check bool) "gambler converges" true
    (Result.is_ok (Markov.converges_with_prob_one good ~legitimate:[| false; false; false; true |]));
  let bad = Markov.of_rows [| [ (0, 1.0) ]; [ (1, 1.0) ] |] in
  match Markov.converges_with_prob_one bad ~legitimate:[| false; true |] with
  | Error 0 -> ()
  | _ -> Alcotest.fail "state 0 should fail"

let test_convergence_iff_bsccs_legitimate () =
  (* Cross-validation on a real protocol: probability-1 convergence
     holds iff every BSCC intersects L (Theorem 7's chain view). *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let via_reach = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate) in
  let via_bscc =
    List.for_all (List.exists (fun c -> legitimate.(c))) (Markov.bsccs chain)
  in
  Alcotest.(check bool) "reachability and BSCC views agree" true (via_reach = via_bscc);
  Alcotest.(check bool) "token ring converges w.p.1" true via_reach

let test_mean_max_hitting () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  check_float "mean" ((9.0 +. 8.0 +. 5.0 +. 0.0) /. 4.0)
    (Markov.mean_hitting_time chain ~legitimate);
  check_float "max" 9.0 (Markov.max_hitting_time chain ~legitimate)

let test_hitting_times_match_simulation () =
  (* Token ring n=4 under central uniform: compare exact hitting time
     from a fixed configuration against Monte-Carlo. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  let h = Markov.expected_hitting_times chain ~legitimate in
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 2 ] in
  let code = Statespace.code space init in
  let rng = Stabrng.Rng.create 2024 in
  let mc =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:4000 ~max_steps:100_000 rng p
      Scheduler.central_random spec
  in
  match mc.Montecarlo.summary with
  | None -> Alcotest.fail "no converged runs"
  | Some s ->
    let exact = h.(code) in
    (* 4000 runs: allow 5 standard errors. *)
    let slack = 5.0 *. s.Stabstats.Stats.stderr +. 1e-6 in
    if Float.abs (s.Stabstats.Stats.mean -. exact) > slack then
      Alcotest.failf "MC mean %f vs exact %f (slack %f)" s.Stabstats.Stats.mean exact slack

let suite =
  [
    Alcotest.test_case "of_rows validation" `Quick test_of_rows_validation;
    Alcotest.test_case "of_rows merge/absorb" `Quick test_of_rows_merges_and_absorbs;
    Alcotest.test_case "of_space rows sum" `Quick test_of_space_rows_sum;
    Alcotest.test_case "terminal absorbing" `Quick test_terminal_states_absorbing;
    Alcotest.test_case "central uniform probs" `Quick test_central_uniform_probabilities;
    Alcotest.test_case "distributed uniform probs" `Quick test_distributed_uniform_probabilities;
    Alcotest.test_case "gambler hitting times" `Quick test_gambler_hitting_times;
    Alcotest.test_case "exact vs iterative" `Quick test_gambler_exact_vs_iterative;
    Alcotest.test_case "hitting needs convergence" `Quick test_hitting_requires_convergence;
    Alcotest.test_case "bsccs" `Quick test_bsccs;
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "prob-1 convergence" `Quick test_converges_with_prob_one;
    Alcotest.test_case "convergence iff BSCCs legit" `Quick test_convergence_iff_bsccs_legitimate;
    Alcotest.test_case "mean/max hitting" `Quick test_mean_max_hitting;
    Alcotest.test_case "hitting vs simulation" `Slow test_hitting_times_match_simulation;
  ]
