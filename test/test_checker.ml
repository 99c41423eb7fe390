(* Tests for the explicit-state stabilization checker, on hand-built
   protocols with known verdicts and on the paper's algorithms. *)

open Stabcore

(* A one-process counter over 0..3 that increments toward 3 and stays:
   self-stabilizing to {3}. *)
let countdown () : int Protocol.t =
  let inc : int Protocol.action =
    {
      label = "inc";
      guard = (fun cfg p -> cfg.(p) < 3);
      result = (fun cfg p -> [ (cfg.(p) + 1, 1.0) ]);
    }
  in
  {
    Protocol.name = "countdown";
    graph = Stabgraph.Graph.chain 1;
    domain = (fun _ -> [ 0; 1; 2; 3 ]);
    actions = [ inc ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let countdown_spec = Spec.make ~name:"at-3" (fun cfg -> cfg.(0) = 3)

(* A one-process 2-cycle 0 <-> 1: never converges to {1}-closure...
   actually {0,1} oscillates; with L = {1} closure fails (1 -> 0).
   With L = {} convergence is impossible. Used for negative tests. *)
let oscillator () : int Protocol.t =
  let flip : int Protocol.action =
    {
      label = "flip";
      guard = (fun _ _ -> true);
      result = (fun cfg p -> [ (1 - cfg.(p), 1.0) ]);
    }
  in
  {
    Protocol.name = "oscillator";
    graph = Stabgraph.Graph.chain 1;
    domain = (fun _ -> [ 0; 1 ]);
    actions = [ flip ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let analyze_countdown () =
  let space = Statespace.build (countdown ()) in
  Checker.analyze space Statespace.Central countdown_spec

let test_countdown_self_stabilizing () =
  let v = analyze_countdown () in
  Alcotest.(check bool) "closure" true (Result.is_ok v.Checker.closure);
  Alcotest.(check bool) "possible" true (Result.is_ok v.Checker.possible);
  Alcotest.(check bool) "certain" true (Result.is_ok v.Checker.certain);
  Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v);
  Alcotest.(check bool) "self" true (Checker.self_stabilizing v);
  Alcotest.(check bool) "self under strong fairness" true
    (Checker.self_stabilizing_strongly_fair v);
  Alcotest.(check bool) "no dead ends" true (v.Checker.dead_ends = [])

let test_oscillator_closure_violation () =
  let space = Statespace.build (oscillator ()) in
  let spec = Spec.make ~name:"at-1" (fun cfg -> cfg.(0) = 1) in
  let v = Checker.analyze space Statespace.Central spec in
  (match v.Checker.closure with
  | Error (Checker.Escape { config; successor; _ }) ->
    Alcotest.(check int) "escapes from 1" 1 config;
    Alcotest.(check int) "to 0" 0 successor
  | Error _ -> Alcotest.fail "expected Escape"
  | Ok () -> Alcotest.fail "closure should fail");
  Alcotest.(check bool) "not weak" false (Checker.weak_stabilizing v)

let test_empty_legitimate_set () =
  let space = Statespace.build (oscillator ()) in
  let spec = Spec.make ~name:"never" (fun _ -> false) in
  let v = Checker.analyze space Statespace.Central spec in
  Alcotest.(check bool) "empty L reported" true
    (v.Checker.closure = Error Checker.Empty_legitimate_set)

let test_oscillator_divergence_cycle () =
  let space = Statespace.build (oscillator ()) in
  (* Pick an unreachable L so the cycle {0,1} lies outside it: use a
     2-value domain with L = {} handled above; here L = nothing
     reachable means we need a third value — reuse countdown's spec
     trick instead: L = {0}? 0 -> 1 escapes; certain convergence from 1
     -> 0 holds... Use the clean case: L = {0}: closure fails but the
     certain-convergence check is still informative (cycle exists
     outside L? 1 -> 0 enters L, no cycle outside). *)
  let spec = Spec.make ~name:"at-0" (fun cfg -> cfg.(0) = 0) in
  let v = Checker.analyze space Statespace.Central spec in
  Alcotest.(check bool) "no cycle fully outside L" true (Result.is_ok v.Checker.certain)

(* Dead-end detection: a protocol whose illegitimate configuration is
   terminal. *)
let test_dead_end_detection () =
  let stuck : int Protocol.t =
    {
      Protocol.name = "stuck";
      graph = Stabgraph.Graph.chain 1;
      domain = (fun _ -> [ 0; 1 ]);
      actions =
        [
          {
            label = "up";
            guard = (fun cfg p -> cfg.(p) = 1);
            (* 1 is legitimate and keeps a self-loop via re-writing 1 *)
            result = (fun _ _ -> [ (1, 1.0) ]);
          };
        ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  let space = Statespace.build stuck in
  let spec = Spec.make ~name:"at-1" (fun cfg -> cfg.(0) = 1) in
  let v = Checker.analyze space Statespace.Central spec in
  Alcotest.(check (list int)) "state 0 is a dead end" [ 0 ] v.Checker.dead_ends;
  (match v.Checker.certain with
  | Error (Checker.Dead_end 0) -> ()
  | _ -> Alcotest.fail "expected Dead_end 0");
  Alcotest.(check bool) "not weak (0 cannot reach L)" false (Checker.weak_stabilizing v)

let test_step_spec_violation () =
  (* countdown with a step spec that forbids the 3 -> 3... there are no
     steps from 3 (terminal), so use mod3 with a step_ok that always
     fails: steps within L get flagged. *)
  let p = Stabalgo.Token_ring.make ~n:4 in
  let bogus =
    Spec.make
      ~step_ok:(fun _ _ -> false)
      ~name:"bogus"
      (Stabalgo.Token_ring.spec ~n:4).Spec.legitimate
  in
  let space = Statespace.build p in
  let v = Checker.analyze space Statespace.Central bogus in
  match v.Checker.closure with
  | Error (Checker.Step_spec _) -> ()
  | _ -> Alcotest.fail "expected step-spec violation"

let test_expand_edge_count () =
  (* mod3 protocol: configurations with equal values have 2 enabled
     processes -> central gives 2 transitions, distributed 3, sync 1. *)
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let count cls =
    Checker.graph_edge_count (Checker.expand space cls)
  in
  (* 3 symmetric configs (00, 11, 22) are non-terminal. *)
  Alcotest.(check int) "central edges" 6 (count Statespace.Central);
  Alcotest.(check int) "distributed edges" 9 (count Statespace.Distributed);
  Alcotest.(check int) "sync edges" 3 (count Statespace.Synchronous)

(* Expansion allocates per configuration (the statements' own outcome
   lists) and per range (the expander's scratch), not per transition:
   2.33 minor words per transition here at width 1. The bound sits
   close above that, so one more two-word block per configuration
   (+0.27 words per transition) fails it. *)
let test_expand_allocation () =
  Pool.set_width 1;
  let space = Statespace.build (Stabalgo.Dijkstra_three.make ~n:6) in
  let before = Gc.minor_words () in
  let g = Checker.expand space Statespace.Distributed in
  let words = Gc.minor_words () -. before in
  let per_edge = words /. float_of_int (Checker.graph_edge_count g) in
  if per_edge > 2.5 then
    Alcotest.failf "%.2f minor words per transition, at most 2.5 allowed" per_edge

(* A randomized step's outcome list is the product of its processes'
   coin flips, merged by code. Herman's ring of 11 under the
   synchronous class (2048 configurations, one step each, up to 2^11
   outcomes) merges those lists in linear time, at most 200 minor words
   per transition at width 1 (1,734 when each outcome walked and
   rebuilt the merged list). *)
let test_randomized_expand_allocation () =
  Pool.set_width 1;
  let space = Statespace.build (Stabalgo.Herman.make ~n:11) in
  let before = Gc.minor_words () in
  let g = Checker.expand space Statespace.Synchronous in
  let words = Gc.minor_words () -. before in
  let per_edge = words /. float_of_int (Checker.graph_edge_count g) in
  if per_edge > 200.0 then
    Alcotest.failf "%.1f minor words per transition, at most 200 allowed" per_edge

(* A deterministic protocol's graph under the distributed class stores
   no group level, no reverse and no edge: per configuration it keeps
   the enabled mask, one offset and one int32 delta per enabled
   process, from which the kernel sums the 2^k - 1 successors. So its
   only per-transition bytes would be a regression: the bound is 4
   bytes per enabled process (about 3 per configuration here, against
   about 12 edges), 2 words per configuration and 64 words. Measured
   after [analyze], so a reverse graph memoized by any verdict pass
   would be counted, and through [graph_bytes], which sees the row
   array outside the heap. A randomized protocol keeps its group and
   outcome arrays. *)
let test_graph_footprint () =
  let n = 6 in
  let space = Statespace.build (Stabalgo.Dijkstra_three.make ~n) in
  ignore (Checker.analyze space Statespace.Distributed (Stabalgo.Dijkstra_three.spec ~n));
  let g = Checker.expand space Statespace.Distributed in
  let bytes = Checker.graph_bytes g in
  let enabled_processes =
    Array.fold_left
      (fun acc mask -> acc + List.length (Statespace.procs_of_mask mask))
      0 (Checker.packing g).Checker.enabled
  in
  let bound =
    (4 * enabled_processes) + (((2 * Statespace.count space) + 64) * (Sys.word_size / 8))
  in
  if bytes > bound then
    Alcotest.failf
      "the graph holds %d bytes, at most %d allowed (%d enabled processes, %d edges, %d \
       configurations)"
      bytes bound enabled_processes (Checker.graph_edge_count g) (Statespace.count space);
  let transformed =
    Statespace.build (Transformer.randomize (Stabalgo.Token_ring.make ~n:3))
  in
  match (Checker.packing (Checker.expand transformed Statespace.Distributed)).Checker.groups with
  | Checker.Outcomes _ -> ()
  | Checker.Singleton | Checker.Subsets ->
    Alcotest.fail "a transformed protocol's graph has a deterministic layout"

(* The count pass sizes a protocol flagged deterministic from its
   guards alone; one whose statement still returns two outcomes must
   make the expansion fail, not pack a truncated relation. *)
let test_expand_rejects_mislabelled_protocol () =
  let flip = oscillator () in
  let coin =
    {
      flip with
      Protocol.actions =
        List.map
          (fun (a : int Protocol.action) ->
            { a with Protocol.result = (fun cfg p -> [ (cfg.(p), 0.5); (1 - cfg.(p), 0.5) ]) })
          flip.Protocol.actions;
    }
  in
  match Checker.expand (Statespace.build coin) Statespace.Distributed with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the disagreeing passes" true
      (String.starts_with ~prefix:"Checker.expand: the fill pass disagrees" msg)

(* The packing stores one enabled mask per configuration and derives
   each group's activated subset from it. A guard that answers
   differently on the same configuration breaks that derivation even
   when the counts agree: here every scan enables exactly one of two
   processes, process 0 on one scan and process 1 on the next, so the
   count pass records {0} and the fill pass activates {1}. *)
let test_expand_rejects_impure_guard () =
  Pool.set_width 1;
  let phase = ref false in
  let impure : int Protocol.action =
    {
      label = "impure";
      guard =
        (fun _ p ->
          if p = 0 then begin
            phase := not !phase;
            !phase
          end
          else not !phase);
      result = (fun cfg p -> [ (cfg.(p), 1.0) ]);
    }
  in
  let p =
    {
      Protocol.name = "impure";
      graph = Stabgraph.Graph.chain 2;
      domain = (fun _ -> [ 0 ]);
      actions = [ impure ];
      equal = Int.equal;
      pp = Format.pp_print_int;
      randomized = false;
    }
  in
  match Checker.expand (Statespace.build p) Statespace.Central with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the configuration's activated mask" true
      (String.starts_with ~prefix:"Checker.expand: configuration 0 activates mask 0x2" msg)

let test_synchronous_lasso_terminal () =
  let space = Statespace.build (countdown ()) in
  let prefix, cycle = Checker.synchronous_lasso space ~init:0 in
  Alcotest.(check (list int)) "prefix walks to 3" [ 0; 1; 2; 3 ] prefix;
  Alcotest.(check (list int)) "no cycle" [] cycle

let test_synchronous_lasso_cycle () =
  let space = Statespace.build (oscillator ()) in
  let prefix, cycle = Checker.synchronous_lasso space ~init:0 in
  Alcotest.(check (list int)) "empty prefix" [] prefix;
  Alcotest.(check (list int)) "two-cycle" [ 0; 1 ] cycle

let test_synchronous_lasso_rejects_randomized () =
  let space = Statespace.build (Fixtures.coin_protocol ()) in
  Alcotest.check_raises "randomized"
    (Invalid_argument "Checker.synchronous_lasso: randomized protocol") (fun () ->
      ignore (Checker.synchronous_lasso space ~init:0))

let test_sync_closed_set () =
  (* mod3: the equal-values set {00,11,22} is closed under synchronous
     steps (both bump together), per the Theorem 3 symmetry argument. *)
  let space = Statespace.build (Fixtures.mod3_protocol ()) in
  Alcotest.(check bool) "symmetric set closed" true
    (Checker.sync_closed_set space (fun cfg -> cfg.(0) = cfg.(1)) = None);
  (* The complement is not closed: distinct values are terminal...
     actually distinct-value configs have no sync step, so the
     complement is closed too. A genuinely escaping set: {00}. *)
  match Checker.sync_closed_set space (fun cfg -> cfg.(0) = 0 && cfg.(1) = 0) with
  | Some (_, _) -> ()
  | None -> Alcotest.fail "{00} should escape to {11}"

(* Paper-level claims, small scale (larger scale in test_integration). *)

let token_verdict n cls =
  let p = Stabalgo.Token_ring.make ~n in
  Checker.analyze (Statespace.build p) cls (Stabalgo.Token_ring.spec ~n)

let test_token_ring_weak_not_self () =
  List.iter
    (fun n ->
      let v = token_verdict n Statespace.Distributed in
      Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v);
      Alcotest.(check bool) "not self" false (Checker.self_stabilizing v);
      Alcotest.(check bool) "not self even strongly fair" false
        (Checker.self_stabilizing_strongly_fair v))
    [ 3; 4; 5 ]

let test_token_ring_divergence_witness_is_multi_token () =
  (* Every configuration in the strongly-fair divergence witness must
     hold more than one token. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let v = Checker.analyze space Statespace.Distributed (Stabalgo.Token_ring.spec ~n) in
  match Lazy.force v.Checker.strongly_fair_diverges with
  | None -> Alcotest.fail "expected a witness"
  | Some states ->
    List.iter
      (fun c ->
        let holders = Stabalgo.Token_ring.token_holders ~n (Statespace.config space c) in
        if List.length holders < 2 then Alcotest.failf "witness state with %d tokens" (List.length holders))
      states

let test_leader_tree_weak_not_self () =
  List.iter
    (fun g ->
      let p = Stabalgo.Leader_tree.make g in
      let v = Checker.analyze (Statespace.build p) Statespace.Distributed (Stabalgo.Leader_tree.spec g) in
      Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v);
      Alcotest.(check bool) "not self" false (Checker.self_stabilizing v))
    (Stabgraph.Graph.all_trees 5)

let test_centers_self_stabilizing () =
  List.iter
    (fun g ->
      let p = Stabalgo.Centers.make g in
      let v = Checker.analyze (Statespace.build p) Statespace.Distributed (Stabalgo.Centers.spec g) in
      Alcotest.(check bool) "self-stabilizing even unfair distributed" true
        (Checker.self_stabilizing v))
    (Stabgraph.Graph.all_trees 5)

let test_verdict_pp () =
  let v = analyze_countdown () in
  let s = Format.asprintf "%a" Checker.pp_verdict v in
  Alcotest.(check bool) "mentions closure" true (String.length s > 20)

let suite =
  [
    Alcotest.test_case "countdown self-stabilizing" `Quick test_countdown_self_stabilizing;
    Alcotest.test_case "closure violation" `Quick test_oscillator_closure_violation;
    Alcotest.test_case "empty legitimate set" `Quick test_empty_legitimate_set;
    Alcotest.test_case "oscillator certain convergence" `Quick test_oscillator_divergence_cycle;
    Alcotest.test_case "dead-end detection" `Quick test_dead_end_detection;
    Alcotest.test_case "step-spec violation" `Quick test_step_spec_violation;
    Alcotest.test_case "expand edge counts" `Quick test_expand_edge_count;
    Alcotest.test_case "expand allocation" `Quick test_expand_allocation;
    Alcotest.test_case "randomized expand allocation" `Quick
      test_randomized_expand_allocation;
    Alcotest.test_case "graph footprint" `Quick test_graph_footprint;
    Alcotest.test_case "expand rejects mislabelled protocol" `Quick
      test_expand_rejects_mislabelled_protocol;
    Alcotest.test_case "expand rejects impure guard" `Quick test_expand_rejects_impure_guard;
    Alcotest.test_case "sync lasso to terminal" `Quick test_synchronous_lasso_terminal;
    Alcotest.test_case "sync lasso cycle" `Quick test_synchronous_lasso_cycle;
    Alcotest.test_case "sync lasso rejects randomized" `Quick test_synchronous_lasso_rejects_randomized;
    Alcotest.test_case "sync closed set" `Quick test_sync_closed_set;
    Alcotest.test_case "token ring weak not self" `Quick test_token_ring_weak_not_self;
    Alcotest.test_case "token divergence witness" `Quick test_token_ring_divergence_witness_is_multi_token;
    Alcotest.test_case "leader tree weak not self" `Quick test_leader_tree_weak_not_self;
    Alcotest.test_case "centers self-stabilizing" `Quick test_centers_self_stabilizing;
    Alcotest.test_case "verdict pp" `Quick test_verdict_pp;
  ]

(* A protocol separating strong from weak fairness: process 0 toggles x
   while y = 0; process 1 may close the system (y := 1, legitimate and
   terminal) but is enabled only when x = 1. The daemon can starve
   process 1 in a weakly fair way (it is not continuously enabled), but
   not in a strongly fair way (it is enabled infinitely often). *)
let handoff () : (int * int) Protocol.t =
  let toggle : (int * int) Protocol.action =
    {
      label = "toggle";
      guard = (fun cfg p -> p = 0 && snd cfg.(1) = 0);
      result = (fun cfg _ -> [ ((1 - fst cfg.(0), 0), 1.0) ]);
    }
  in
  let close : (int * int) Protocol.action =
    {
      label = "close";
      guard = (fun cfg p -> p = 1 && snd cfg.(1) = 0 && fst cfg.(0) = 1);
      result = (fun _ _ -> [ ((0, 1), 1.0) ]);
    }
  in
  {
    Protocol.name = "handoff";
    graph = Stabgraph.Graph.chain 2;
    domain = (fun p -> if p = 0 then [ (0, 0); (1, 0) ] else [ (0, 0); (0, 1) ]);
    actions = [ toggle; close ];
    equal = (fun a b -> a = b);
    pp = (fun fmt (a, b) -> Format.fprintf fmt "%d%d" a b);
    randomized = false;
  }

let test_strong_vs_weak_fairness_separation () =
  let p = handoff () in
  let spec = Spec.make ~name:"closed" (fun cfg -> snd cfg.(1) = 1) in
  let space = Statespace.build p in
  let v = Checker.analyze space Statespace.Distributed spec in
  Alcotest.(check bool) "closure" true (Result.is_ok v.Checker.closure);
  Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
  (* An unfair daemon can cycle x forever: not plainly self-stabilizing. *)
  Alcotest.(check bool) "not self (unfair)" false (Checker.self_stabilizing v);
  (* Strong fairness forces the close action: converges. *)
  Alcotest.(check bool) "no strongly-fair divergence" true
    (Lazy.force v.Checker.strongly_fair_diverges = None);
  Alcotest.(check bool) "self under strong fairness" true
    (Checker.self_stabilizing_strongly_fair v);
  (* Weak fairness does not: the toggle cycle starves process 1 fairly. *)
  Alcotest.(check bool) "weakly-fair divergence exists" true
    (Lazy.force v.Checker.weakly_fair_diverges <> None);
  Alcotest.(check bool) "not self under weak fairness" false
    (Checker.self_stabilizing_weakly_fair v)

(* The three-process variant whose Streett analysis must prune twice
   before concluding there is no strongly-fair divergence. *)
let two_gate () : int Protocol.t =
  let act ~pid ~label guard result : int Protocol.action =
    {
      label;
      guard = (fun cfg p -> p = pid && guard cfg);
      result = (fun cfg _ -> [ (result cfg, 1.0) ]);
    }
  in
  (* State components by process: x in 0..2 at process 0; y bool at 1;
     z bool at 2. Configurations encode each process's own slot. *)
  {
    Protocol.name = "two-gate";
    graph = Stabgraph.Graph.chain 3;
    domain = (fun p -> if p = 0 then [ 0; 1; 2 ] else [ 0; 1 ]);
    actions =
      [
        act ~pid:0 ~label:"spin"
          (fun cfg -> cfg.(2) = 0)
          (fun cfg -> (cfg.(0) + 1) mod 3);
        act ~pid:1 ~label:"up"
          (fun cfg -> cfg.(2) = 0 && cfg.(0) = 1 && cfg.(1) = 0)
          (fun _ -> 1);
        act ~pid:1 ~label:"down"
          (fun cfg -> cfg.(2) = 0 && cfg.(0) = 0 && cfg.(1) = 1)
          (fun _ -> 0);
        act ~pid:2 ~label:"close"
          (fun cfg -> cfg.(2) = 0 && cfg.(0) = 2 && cfg.(1) = 1)
          (fun _ -> 1);
      ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let test_streett_pruning_cascade () =
  let p = two_gate () in
  let spec = Spec.make ~name:"closed" (fun cfg -> cfg.(2) = 1) in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Distributed in
  let legitimate = Statespace.legitimate_set space spec in
  (* Pruning the close-enabled state exposes a sub-SCC whose own
     never-firing process must be pruned in turn; after the cascade no
     witness survives. *)
  Alcotest.(check bool) "no strongly-fair divergence" true
    (Checker.strongly_fair_divergence space g ~legitimate = None);
  (* Unfair divergence does exist (the spin cycle). *)
  Alcotest.(check bool) "plain divergence exists" true
    (Result.is_error (Checker.certain_convergence space g ~legitimate))

let fairness_suite =
  [
    Alcotest.test_case "strong vs weak fairness separation" `Quick
      test_strong_vs_weak_fairness_separation;
    Alcotest.test_case "Streett pruning cascade" `Quick test_streett_pruning_cascade;
  ]

let suite = suite @ fairness_suite

(* Certain convergence settles possible convergence in [analyze], and
   the kernel remembers its last outside-set search. Both shortcuts are
   held here to the kernel's passes run on a physically distinct copy
   of the graph, which the memo, keyed by graph identity, cannot
   answer. Random deterministic systems give [Subsets] rows under the
   distributed class and [Edges] rows under the central and synchronous
   ones; their guards leave terminals outside most target sets, and the
   denser targets leave some systems certainly convergent. *)
let classes = [| Statespace.Distributed; Statespace.Central; Statespace.Synchronous |]

let test_verdicts_match_kernel () =
  let seen_dead_end = ref 0 and seen_certain = ref 0 and seen_cycle = ref 0 in
  let prop seed =
    let space = Statespace.build (Test_random_systems.random_protocol seed) in
    let cls = classes.(seed mod 3) in
    let rng = Stabrng.Rng.create (seed + 31) in
    let density = [| 0.25; 0.6; 0.9 |].(Stabrng.Rng.int rng 3) in
    let target =
      Array.init (Statespace.count space) (fun _ -> Stabrng.Rng.bernoulli rng density)
    in
    let spec = Spec.make ~name:"random" (fun cfg -> target.(Statespace.code space cfg)) in
    let v = Checker.analyze space cls spec in
    let copy =
      { (Checker.successors (Checker.expand space cls)) with Digraph.n = Array.length target }
    in
    let possible =
      match Array.find_index not (Digraph.reaches copy ~target) with
      | None -> Ok ()
      | Some c -> Error c
    in
    let dead_end c = (not target.(c)) && Digraph.out_degree copy c = 0 in
    let certain =
      match Seq.find dead_end (Seq.init copy.n Fun.id) with
      | Some c ->
        incr seen_dead_end;
        Error (Checker.Dead_end c)
      | None -> (
        match Digraph.cycle_outside copy ~inside:target with
        | Some cycle ->
          incr seen_cycle;
          Error (Checker.Cycle cycle)
        | None ->
          incr seen_certain;
          Ok ())
    in
    v.Checker.possible = possible && v.Checker.certain = certain
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300 ~name:"analyze = kernel passes on a copy" QCheck.small_nat prop);
  if !seen_dead_end = 0 || !seen_cycle = 0 || !seen_certain = 0 then
    Alcotest.failf "coverage: %d dead ends, %d cycles, %d certainly convergent" !seen_dead_end
      !seen_cycle !seen_certain

(* On a self-stabilizing system [analyze] and then [worst_case_steps]
   run one outside-set search between them and no reachability pass.
   A fresh space keys a fresh graph, so no earlier answer is
   remembered. *)
let test_one_search_per_verdict () =
  let value = Stabobs.Obs.Counter.value in
  let space = Statespace.build (Stabalgo.Dijkstra_three.make ~n:6) in
  let spec = Stabalgo.Dijkstra_three.spec ~n:6 in
  Test_differential.counting @@ fun () ->
  let heights0 = value Stabobs.Obs.checker_heights_passes in
  let reaches0 = value Stabobs.Obs.checker_reaches_passes in
  let v = Checker.analyze space Statespace.Distributed spec in
  let g = Checker.expand space Statespace.Distributed in
  let worst =
    Checker.worst_case_steps space g ~legitimate:(Statespace.legitimate_set space spec)
  in
  Alcotest.(check bool) "self-stabilizing" true (Checker.self_stabilizing v);
  Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
  Alcotest.(check bool) "worst case defined" true (worst <> None);
  Alcotest.(check int) "heights passes" 1 (value Stabobs.Obs.checker_heights_passes - heights0);
  Alcotest.(check int) "reaches passes" 0 (value Stabobs.Obs.checker_reaches_passes - reaches0)

let suite =
  suite
  @ [
      Alcotest.test_case "analyze = kernel passes on a copy" `Quick test_verdicts_match_kernel;
      Alcotest.test_case "one search per self-stabilizing verdict" `Quick
        test_one_search_per_verdict;
    ]
