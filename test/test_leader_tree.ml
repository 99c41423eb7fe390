(* Tests for Algorithm 2 (weak-stabilizing leader election on anonymous
   trees), including the Figure 2 and Figure 3 scenarios and the
   Theorem 3 impossibility argument. *)

open Stabcore
open Stabalgo.Leader_tree

let test_make_rejects_non_tree () =
  Alcotest.check_raises "ring rejected"
    (Invalid_argument "Leader_tree.make: graph is not a tree") (fun () ->
      ignore (make (Stabgraph.Graph.ring 4)))

let test_helpers_on_oriented_chain () =
  let g = Stabgraph.Graph.chain 3 in
  (* 0 -> 1 <- 2 with 1 the root: 0 points to its neighbor 1 (local
     index 0), 1 is Root, 2 points to 1 (local index 0). *)
  let cfg = [| Parent 0; Root; Parent 0 |] in
  Alcotest.(check (list int)) "leaders" [ 1 ] (leaders cfg);
  Alcotest.(check bool) "is_lc" true (is_lc g cfg)

let test_root_of_stops_at_mutual_pair () =
  let g = Stabgraph.Graph.chain 3 in
  let cfg = [| Parent 0; Parent 0; Parent 0 |] in
  Alcotest.(check bool) "not lc (no root)" false (is_lc g cfg);
  (* 0 is the only root; 1 <-> 2 point at each other and 3 points to
     2. ParPath(1) stops at the mutual pair instead of cycling, so the
     single leader does not make the configuration legitimate. *)
  let g = Stabgraph.Graph.chain 4 in
  let cfg = [| Root; Parent 1; Parent 0; Parent 0 |] in
  Alcotest.(check bool) "stops at mutual pair" false (is_lc g cfg)

let test_two_roots_not_lc () =
  let g = Stabgraph.Graph.chain 2 in
  Alcotest.(check bool) "two roots" false (is_lc g [| Root; Root |])

(* Lemma 10: a configuration satisfies LC iff it is terminal. *)
let test_lemma10_lc_iff_terminal () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          let p = make g in
          let enc = Encoding.of_protocol p in
          Encoding.iter enc (fun _ cfg ->
              let lc = is_lc g cfg in
              let terminal = Protocol.is_terminal p cfg in
              if lc <> terminal then
                Alcotest.failf "LC(%b) <> terminal(%b) on a tree of %d nodes" lc terminal n))
        (Stabgraph.Graph.all_trees n))
    [ 2; 3; 4; 5; 6 ]

(* Lemma 7: when nobody is a leader, some A1 is enabled. *)
let test_lemma7_a1_enabled_when_leaderless () =
  List.iter
    (fun g ->
      let p = make g in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if leaders cfg = [] then begin
            let some_a1 =
              Stabgraph.Graph.fold_nodes
                (fun q acc ->
                  acc
                  ||
                  match Protocol.enabled_action p cfg q with
                  | Some a -> a.Protocol.label = "A1"
                  | None -> false)
                g false
            in
            if not some_a1 then Alcotest.fail "leaderless configuration without enabled A1"
          end))
    (Stabgraph.Graph.all_trees 5)

(* Theorem 4 essentials on every small tree. *)
let test_theorem4 () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          let p = make g in
          let v = Checker.analyze (Statespace.build p) Statespace.Distributed (spec g) in
          Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
          Alcotest.(check bool) "not self-stabilizing" false (Checker.self_stabilizing v))
        (Stabgraph.Graph.all_trees n))
    [ 2; 3; 4; 5 ]

(* Figure 2: the scripted execution converges to a unique leader. *)
let test_fig2_replay () =
  let p = make fig2_tree in
  let trace = Engine.replay p ~init:fig2_initial fig2_script in
  let final = Engine.final_config trace in
  Alcotest.(check int) "five steps" 5 (List.length trace.Engine.events);
  Alcotest.(check bool) "terminal" true (Protocol.is_terminal p final);
  Alcotest.(check bool) "LC" true (is_lc fig2_tree final);
  Alcotest.(check (list int)) "unique leader (paper's P6)" [ 5 ] (leaders final)

let test_fig2_initial_leaderless () =
  Alcotest.(check (list int)) "no initial leader" [] (leaders fig2_initial)

(* Figure 3: synchronous execution from the mutual-pair configuration
   on the 4-chain oscillates with period 2 and never converges. *)
let test_fig3_sync_oscillation () =
  let g = Stabgraph.Graph.chain 4 in
  let p = make g in
  let space = Statespace.build p in
  let init = [| Parent 0; Parent 0; Parent 1; Parent 0 |] in
  let prefix, cycle = Checker.synchronous_lasso space ~init:(Statespace.code space init) in
  Alcotest.(check int) "no prefix" 0 (List.length prefix);
  Alcotest.(check int) "period 2" 2 (List.length cycle);
  List.iter
    (fun code ->
      Alcotest.(check bool) "never legitimate" false
        (is_lc g (Statespace.config space code)))
    cycle

(* Theorem 3: on the 4-chain with an adversarially symmetric local
   labeling, the set X = { <a,b,b,a> } is closed under synchronous
   steps — and no configuration of X elects a leader, so no
   deterministic algorithm (Algorithm 2 included) self-stabilizes.
   The labeling matters: anonymity lets the adversary order node 2's
   neighbors as [3; 1], making the chain's mirror preserve local
   indexes exactly. *)
let symmetric_chain4 () =
  let g = Stabgraph.Graph.chain 4 in
  (* Node 1 keeps order [0; 2]; node 2 gets [3; 1], so the mirror
     0<->3, 1<->2 maps local index k at node 1 to local index k at
     node 2 (and trivially for the degree-1 ends). *)
  Stabgraph.Graph.reorder_neighbors g 2 [| 3; 1 |]

let test_theorem3_symmetric_closure () =
  let g = symmetric_chain4 () in
  let p = make g in
  let space = Statespace.build p in
  let symmetric cfg = cfg.(0) = cfg.(3) && cfg.(1) = cfg.(2) in
  (match Checker.sync_closed_set space symmetric with
  | None -> ()
  | Some (c, c') ->
    Alcotest.failf "X escapes: %s -> %s"
      (Format.asprintf "%a" (Protocol.pp_config p) (Statespace.config space c))
      (Format.asprintf "%a" (Protocol.pp_config p) (Statespace.config space c')));
  (* No symmetric configuration is legitimate, and none is terminal —
     so the synchronous execution from X runs forever outside L. *)
  let enc = Statespace.encoding space in
  Encoding.iter enc (fun _ cfg ->
      if symmetric cfg then begin
        if is_lc g cfg then Alcotest.fail "a symmetric configuration elects a leader";
        if Protocol.is_terminal p cfg then
          Alcotest.fail "a symmetric configuration is terminal"
      end)

(* Counterpoint: with the default (sorted) labeling, A3's min-local
   tie-break CAN break the all-roots symmetry — the impossibility
   argument genuinely needs the adversarial labeling. *)
let test_theorem3_labeling_matters () =
  let g = Stabgraph.Graph.chain 4 in
  let p = make g in
  let space = Statespace.build p in
  let symmetric cfg = cfg.(0) = cfg.(3) && cfg.(1) = cfg.(2) in
  Alcotest.(check bool) "plain-index symmetry is NOT closed" true
    (Checker.sync_closed_set space symmetric <> None)

(* Possible convergence is schedule-sensitive: under the synchronous
   CLASS alone, some initial configurations never converge (Figure 3),
   so Algorithm 2 is not weak-stabilizing w.r.t. synchronous-only
   executions. *)
let test_not_weak_under_synchronous_class () =
  let g = Stabgraph.Graph.chain 4 in
  let p = make g in
  let v = Checker.analyze (Statespace.build p) Statespace.Synchronous (spec g) in
  Alcotest.(check bool) "possible convergence fails" false
    (Result.is_ok v.Checker.possible)

let qcheck_random_runs_respect_domain =
  QCheck.Test.make ~count:100 ~name:"leader-tree runs keep states in domain"
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let p = make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:false ~max_steps:50 rng p (Scheduler.distributed_random ())
          ~init
      in
      Array.for_all
        (fun s ->
          match s with
          | Root -> true
          | Parent k -> k >= 0)
        r.Engine.final)

let qcheck_converged_runs_are_lc =
  QCheck.Test.make ~count:100 ~name:"terminal leader-tree configurations satisfy LC"
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let p = make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:false ~max_steps:500 rng p (Scheduler.central_random ()) ~init
      in
      match r.Engine.stop with
      | Engine.Terminal -> is_lc g r.Engine.final
      | Engine.Exhausted | Engine.Converged | Engine.Stalled -> true)

let suite =
  [
    Alcotest.test_case "rejects non-trees" `Quick test_make_rejects_non_tree;
    Alcotest.test_case "helpers on oriented chain" `Quick test_helpers_on_oriented_chain;
    Alcotest.test_case "root_of mutual pair" `Quick test_root_of_stops_at_mutual_pair;
    Alcotest.test_case "two roots not LC" `Quick test_two_roots_not_lc;
    Alcotest.test_case "Lemma 10 (LC iff terminal)" `Quick test_lemma10_lc_iff_terminal;
    Alcotest.test_case "Lemma 7 (A1 when leaderless)" `Quick test_lemma7_a1_enabled_when_leaderless;
    Alcotest.test_case "Theorem 4" `Quick test_theorem4;
    Alcotest.test_case "Figure 2 replay" `Quick test_fig2_replay;
    Alcotest.test_case "Figure 2 starts leaderless" `Quick test_fig2_initial_leaderless;
    Alcotest.test_case "Figure 3 oscillation" `Quick test_fig3_sync_oscillation;
    Alcotest.test_case "Theorem 3 symmetric closure" `Quick test_theorem3_symmetric_closure;
    Alcotest.test_case "Theorem 3 labeling matters" `Quick test_theorem3_labeling_matters;
    Alcotest.test_case "not weak under sync class" `Quick test_not_weak_under_synchronous_class;
    QCheck_alcotest.to_alcotest qcheck_random_runs_respect_domain;
    QCheck_alcotest.to_alcotest qcheck_converged_runs_are_lc;
  ]
