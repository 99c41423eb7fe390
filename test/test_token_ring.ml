(* Tests for Algorithm 1 (token circulation on anonymous unidirectional
   rings). *)

open Stabcore

let test_smallest_non_divisor () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "m_%d" n) expected
        (Stabalgo.Token_ring.smallest_non_divisor n))
    [ (2, 3); (3, 2); (4, 3); (5, 2); (6, 4); (7, 2); (12, 5); (60, 7) ]

(* Process p's predecessor is p - 1 mod n: a token fired at p - 1
   lands on p, and one fired at n - 1 wraps to 0. *)
let test_predecessor () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  List.iter
    (fun (from, into) ->
      let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ from ] in
      Alcotest.(check (list int))
        (Printf.sprintf "pred of %d" into)
        [ into ]
        (Stabalgo.Token_ring.token_holders ~n
           (Engine.final_config (Engine.replay p ~init [ [ from ] ]))))
    [ (5, 0); (2, 3) ]

let test_make_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Token_ring.make: need n >= 3")
    (fun () -> ignore (Stabalgo.Token_ring.make ~n:2))

let test_legitimate_config () =
  List.iter
    (fun n ->
      let cfg = Stabalgo.Token_ring.legitimate_config ~n in
      Alcotest.(check (list int)) "token at 0" [ 0 ]
        (Stabalgo.Token_ring.token_holders ~n cfg))
    [ 3; 4; 5; 6; 7; 12 ]

let test_config_with_tokens_at () =
  List.iter
    (fun (n, holders) ->
      let cfg = Stabalgo.Token_ring.config_with_tokens_at ~n holders in
      Alcotest.(check (list int)) "requested holders" (List.sort compare holders)
        (Stabalgo.Token_ring.token_holders ~n cfg))
    [ (6, [ 0; 3 ]); (6, [ 1; 4 ]); (6, [ 0; 2; 4 ]); (4, [ 0; 2 ]); (12, [ 0; 6 ]) ]

let test_config_with_tokens_at_impossible () =
  Alcotest.check_raises "zero tokens"
    (Invalid_argument "Token_ring.config_with_tokens_at: zero tokens is impossible (Lemma 4)")
    (fun () -> ignore (Stabalgo.Token_ring.config_with_tokens_at ~n:6 []));
  (* n = 5 => m = 2: token count parity is odd; two tokens impossible. *)
  Alcotest.check_raises "parity"
    (Invalid_argument
       "Token_ring.config_with_tokens_at: token count has the wrong parity for this ring")
    (fun () -> ignore (Stabalgo.Token_ring.config_with_tokens_at ~n:5 [ 0; 2 ]))

(* Lemma 4: no configuration is token-free. *)
let test_lemma4_no_tokenless_config () =
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if Stabalgo.Token_ring.token_holders ~n cfg = [] then
            Alcotest.fail "found a configuration without tokens"))
    [ 3; 4; 5; 6 ]

(* Enabledness coincides with token holding. *)
let test_enabled_iff_token () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let enc = Encoding.of_protocol p in
  Encoding.iter enc (fun _ cfg ->
      let enabled = Protocol.enabled_processes p cfg in
      let holders = Stabalgo.Token_ring.token_holders ~n cfg in
      if enabled <> holders then Alcotest.fail "enabled set differs from token holders")

(* Figure 1: from a legitimate configuration, the token walks around
   the ring visiting every process — here two full revolutions. *)
let test_fig1_circulation () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let init = Stabalgo.Token_ring.legitimate_config ~n in
  let script = List.init (2 * n) (fun i -> [ i mod n ]) in
  let trace = Engine.replay p ~init script in
  List.iteri
    (fun i cfg ->
      Alcotest.(check (list int))
        (Printf.sprintf "token position after %d steps" i)
        [ i mod n ]
        (Stabalgo.Token_ring.token_holders ~n cfg))
    (Engine.configs trace)

let test_spec_step_ok () =
  let n = 6 in
  let spec = Stabalgo.Token_ring.spec ~n in
  let before = Stabalgo.Token_ring.legitimate_config ~n in
  let p = Stabalgo.Token_ring.make ~n in
  let after =
    match Protocol.step_outcomes p before [ 0 ] with
    | [ (cfg, _) ] -> cfg
    | _ -> Alcotest.fail "deterministic step expected"
  in
  match spec.Spec.step_ok with
  | None -> Alcotest.fail "spec must constrain steps"
  | Some ok ->
    Alcotest.(check bool) "token moves to successor" true (ok before after);
    Alcotest.(check bool) "token cannot jump" false (ok before before)

(* Strong closure with the step spec, exhaustively. *)
let test_closure_with_step_spec () =
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      let space = Statespace.build p in
      let g = Checker.expand space Statespace.Distributed in
      Alcotest.(check bool) "closure" true
        (Result.is_ok (Checker.check_closure space g (Stabalgo.Token_ring.spec ~n))))
    [ 3; 4; 5; 6 ]

(* Theorem 2 at the heart: weak but not self, under the distributed
   class; and no illegitimate dead ends (the system is always live). *)
let test_theorem2 () =
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed
          (Stabalgo.Token_ring.spec ~n)
      in
      Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
      Alcotest.(check bool) "not self-stabilizing" false (Checker.self_stabilizing v);
      Alcotest.(check bool) "no dead ends" true (v.Checker.dead_ends = []);
      Alcotest.(check bool) "diverges even under strong fairness" true
        (Lazy.force v.Checker.strongly_fair_diverges <> None))
    [ 3; 4; 5; 6 ]

(* Under the CENTRAL class it is also weak-stabilizing (the paper notes
   the proofs never require simultaneous activations). *)
let test_weak_under_central () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let v =
    Checker.analyze (Statespace.build p) Statespace.Central (Stabalgo.Token_ring.spec ~n)
  in
  Alcotest.(check bool) "weak under central" true (Checker.weak_stabilizing v)

(* Memory requirement: the domain really is m_N values, log(m_N) bits. *)
let test_memory_requirement () =
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      Alcotest.(check int) "domain size"
        (Stabalgo.Token_ring.smallest_non_divisor n)
        (List.length (p.Protocol.domain 0)))
    [ 3; 4; 5; 6; 7 ]

let qcheck_tokens_never_vanish =
  QCheck.Test.make ~count:200 ~name:"token count never reaches zero along runs"
    QCheck.(pair small_int (int_range 3 9))
    (fun (seed, n) ->
      let p = Stabalgo.Token_ring.make ~n in
      let rng = Stabrng.Rng.create seed in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:true ~max_steps:30 rng p (Scheduler.distributed_random ()) ~init
      in
      List.for_all
        (fun cfg -> Stabalgo.Token_ring.token_holders ~n cfg <> [])
        (Engine.configs r.Engine.trace))

let qcheck_token_count_never_increases =
  QCheck.Test.make ~count:200 ~name:"token count is non-increasing"
    QCheck.(pair small_int (int_range 3 9))
    (fun (seed, n) ->
      let p = Stabalgo.Token_ring.make ~n in
      let rng = Stabrng.Rng.create seed in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:true ~max_steps:30 rng p (Scheduler.distributed_random ()) ~init
      in
      let counts =
        List.map
          (fun cfg -> List.length (Stabalgo.Token_ring.token_holders ~n cfg))
          (Engine.configs r.Engine.trace)
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      non_increasing counts)

let suite =
  [
    Alcotest.test_case "smallest non-divisor" `Quick test_smallest_non_divisor;
    Alcotest.test_case "predecessor" `Quick test_predecessor;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "legitimate config" `Quick test_legitimate_config;
    Alcotest.test_case "config with tokens at" `Quick test_config_with_tokens_at;
    Alcotest.test_case "impossible token placements" `Quick test_config_with_tokens_at_impossible;
    Alcotest.test_case "Lemma 4 (no tokenless config)" `Quick test_lemma4_no_tokenless_config;
    Alcotest.test_case "enabled iff token" `Quick test_enabled_iff_token;
    Alcotest.test_case "Figure 1 circulation" `Quick test_fig1_circulation;
    Alcotest.test_case "spec step_ok" `Quick test_spec_step_ok;
    Alcotest.test_case "closure with step spec" `Quick test_closure_with_step_spec;
    Alcotest.test_case "Theorem 2" `Quick test_theorem2;
    Alcotest.test_case "weak under central" `Quick test_weak_under_central;
    Alcotest.test_case "memory requirement" `Quick test_memory_requirement;
    QCheck_alcotest.to_alcotest qcheck_tokens_never_vanish;
    QCheck_alcotest.to_alcotest qcheck_token_count_never_increases;
  ]
