(* Tests for the on-the-fly reachability analyses, cross-validated
   against the exhaustive checker on small instances and exercised on
   instances far beyond full enumeration. *)

open Stabcore

(* Each verdict of the one exploration entry, with its stats. *)
let possible_from ?max_states space cls spec ~inits =
  let r = Onthefly.analyze ?max_states space cls spec ~inits in
  (r.Onthefly.possible, r.Onthefly.stats)

let certain_from ?max_states space cls spec ~inits =
  let r = Onthefly.analyze ?max_states space cls spec ~inits in
  (r.Onthefly.certain, r.Onthefly.stats)

let test_legitimate_orbit_size () =
  (* From a legitimate token-ring configuration the reachable set is
     the circulation orbit: 12 configurations for n = 6 — one
     revolution moves the token around but shifts every counter by +2
     (mod 4), so two revolutions close the cycle (exactly Figure 1). *)
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let stats =
    (Onthefly.analyze space Statespace.Central (Stabalgo.Token_ring.spec ~n)
       ~inits:[ Stabalgo.Token_ring.legitimate_config ~n ])
      .Onthefly.stats
  in
  Alcotest.(check int) "orbit size" (2 * n) stats.Onthefly.explored;
  Alcotest.(check bool) "complete" true stats.Onthefly.complete

let test_budget_yields_unknown () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let spec = Stabalgo.Token_ring.spec ~n in
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 3 ] in
  let verdict, stats =
    possible_from ~max_states:5 space Statespace.Distributed spec
      ~inits:[ init ]
  in
  Alcotest.(check bool) "unknown" true (verdict = Onthefly.Unknown);
  Alcotest.(check bool) "incomplete" false stats.Onthefly.complete

let test_inits_count_against_budget () =
  (* Three distinct initial configurations and a budget of two: the
     inits alone exhaust it, so nothing is expanded. *)
  let n = 6 in
  let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
  let spec = Stabalgo.Token_ring.spec ~n in
  let tokens at = Stabalgo.Token_ring.config_with_tokens_at ~n at in
  let inits = [ tokens [ 0; 3 ]; tokens [ 0; 3 ]; tokens [ 1; 4 ]; tokens [ 2; 5 ] ] in
  let verdict, stats = possible_from ~max_states:2 space Statespace.Distributed spec ~inits in
  Alcotest.(check bool) "unknown" true (verdict = Onthefly.Unknown);
  Alcotest.(check bool) "incomplete" false stats.Onthefly.complete;
  Alcotest.(check int) "explored the budget" 2 stats.Onthefly.explored;
  Alcotest.(check int) "no row expanded" 0 stats.Onthefly.edges;
  (* A repeated init is one configuration: three distinct inits fit a
     budget of three. *)
  let _, stats = possible_from ~max_states:3 space Statespace.Distributed spec ~inits in
  Alcotest.(check bool) "three fit" true (stats.Onthefly.explored >= 3)

let test_matches_full_checker_token_ring () =
  (* Possible convergence from ALL configurations must agree with the
     global checker when the initial set is the full space. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let spec = Stabalgo.Token_ring.spec ~n in
  let enc = Statespace.encoding space in
  let all = ref [] in
  Encoding.iter enc (fun _ cfg -> all := Array.copy cfg :: !all);
  let verdict, stats =
    possible_from space Statespace.Distributed spec ~inits:!all
  in
  Alcotest.(check bool) "converges" true (verdict = Onthefly.Converges);
  Alcotest.(check int) "explored everything" (Statespace.count space) stats.Onthefly.explored;
  (* Certain convergence fails globally (Theorem 2). *)
  let verdict2, _ =
    certain_from space Statespace.Distributed spec ~inits:!all
  in
  match verdict2 with
  | Onthefly.Counterexample _ -> ()
  | _ -> Alcotest.fail "expected a counterexample"

let test_certain_from_legitimate_orbit () =
  (* Restricted to the legitimate orbit, the token ring never leaves L:
     vacuous certain convergence (every reachable config in L). *)
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let spec = Stabalgo.Token_ring.spec ~n in
  let verdict, _ =
    certain_from space Statespace.Central spec
      ~inits:[ Stabalgo.Token_ring.legitimate_config ~n ]
  in
  Alcotest.(check bool) "converges" true (verdict = Onthefly.Converges)

let test_large_instance_two_tokens () =
  (* n = 12: the full space has 5^12 ~ 2.4e8 configurations; the
     sub-system reachable from a two-token configuration has a few
     hundred. Weak convergence holds, certain convergence does not. *)
  let n = 12 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build ~max_configs:max_int p in
  let spec = Stabalgo.Token_ring.spec ~n in
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 6 ] in
  let verdict, stats =
    possible_from space Statespace.Central spec ~inits:[ init ]
  in
  Alcotest.(check bool) "weak convergence" true (verdict = Onthefly.Converges);
  Alcotest.(check bool) "tiny sub-system" true (stats.Onthefly.explored < 2_000);
  let verdict2, _ =
    certain_from space Statespace.Central spec ~inits:[ init ]
  in
  (match verdict2 with
  | Onthefly.Counterexample code ->
    (* The witness is part of a multi-token orbit. *)
    let cfg = Statespace.config space code in
    Alcotest.(check bool) "multi-token witness" true
      (List.length (Stabalgo.Token_ring.token_holders ~n cfg) >= 2)
  | _ -> Alcotest.fail "expected a counterexample")

let test_large_leader_tree () =
  let g = Stabgraph.Graph.random_tree (Stabrng.Rng.create 5) 12 in
  let p = Stabalgo.Leader_tree.make g in
  let space = Statespace.build ~max_configs:max_int p in
  let spec = Stabalgo.Leader_tree.spec g in
  let rng = Stabrng.Rng.create 6 in
  let inits = List.init 3 (fun _ -> Protocol.random_config rng p) in
  let verdict, stats =
    possible_from ~max_states:200_000 space Statespace.Central spec
      ~inits
  in
  match verdict with
  | Onthefly.Converges ->
    Alcotest.(check bool) "explored at least the inits" true (stats.Onthefly.explored >= 3)
  | Onthefly.Unknown -> () (* budget exceeded is acceptable for this size *)
  | Onthefly.Counterexample _ -> Alcotest.fail "Algorithm 2 is weak-stabilizing"

let qcheck_onthefly_matches_checker =
  QCheck.Test.make ~count:60 ~name:"on-the-fly = global checker on random systems"
    QCheck.small_int
    (fun seed ->
      (* Reuse the random-system generator's approach via a simple
         2-process protocol family. *)
      let rng = Stabrng.Rng.create (seed + 90_000) in
      let k = 2 + Stabrng.Rng.int rng 2 in
      let salt = Stabrng.Rng.int rng 1_000_000 in
      let act : int Protocol.action =
        {
          label = "R";
          guard = (fun cfg p -> ((cfg.(p) * 31) + cfg.(1 - p) + salt) mod 3 <> 0);
          result =
            (fun cfg p ->
              let s = ((cfg.(p) * 17) + (cfg.(1 - p) * 5) + salt) mod k in
              [ ((if s = cfg.(p) then (s + 1) mod k else s), 1.0) ]);
        }
      in
      let p : int Protocol.t =
        {
          Protocol.name = "random2";
          graph = Stabgraph.Graph.chain 2;
          domain = (fun _ -> List.init k Fun.id);
          actions = [ act ];
          equal = Int.equal;
          pp = Format.pp_print_int;
          randomized = false;
        }
      in
      let space = Statespace.build p in
      let target = Stabrng.Rng.int rng (Statespace.count space) in
      let spec =
        Spec.make ~name:"random-target" (fun cfg -> Statespace.code space cfg = target)
      in
      let enc = Statespace.encoding space in
      let all = ref [] in
      Encoding.iter enc (fun _ cfg -> all := Array.copy cfg :: !all);
      let otf, _ =
        possible_from space Statespace.Distributed spec ~inits:!all
      in
      let g = Checker.expand space Statespace.Distributed in
      let legitimate = Statespace.legitimate_set space spec in
      let global = Checker.possible_convergence space g ~legitimate in
      (otf = Onthefly.Converges) = Result.is_ok global)

let suite =
  [
    Alcotest.test_case "legitimate orbit size" `Quick test_legitimate_orbit_size;
    Alcotest.test_case "budget yields unknown" `Quick test_budget_yields_unknown;
    Alcotest.test_case "inits count against budget" `Quick test_inits_count_against_budget;
    Alcotest.test_case "matches full checker" `Quick test_matches_full_checker_token_ring;
    Alcotest.test_case "certain on orbit" `Quick test_certain_from_legitimate_orbit;
    Alcotest.test_case "large token instance" `Quick test_large_instance_two_tokens;
    Alcotest.test_case "large leader tree" `Quick test_large_leader_tree;
    Qcheck_seeded.to_alcotest qcheck_onthefly_matches_checker;
  ]
