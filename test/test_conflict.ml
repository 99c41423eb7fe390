(* Tests for the conflict-flavored protocols: greedy coloring and
   Hsu-Huang maximal matching. *)

open Stabcore

(* --- coloring --- *)

(* Processes sharing a color with some neighbor, ascending. *)
let conflicts g cfg =
  List.filter
    (fun p -> Array.exists (fun q -> cfg.(q) = cfg.(p)) (Stabgraph.Graph.neighbors g p))
    (List.init (Stabgraph.Graph.size g) Fun.id)

let test_coloring_validation () =
  Alcotest.check_raises "too few colors"
    (Invalid_argument "Coloring.make: need colors > max degree") (fun () ->
      ignore (Stabalgo.Coloring.make ~colors:2 (Stabgraph.Graph.ring 4)))

let test_coloring_terminal_iff_proper () =
  List.iter
    (fun g ->
      let p = Stabalgo.Coloring.make g in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if Protocol.is_terminal p cfg <> (Stabalgo.Coloring.spec g).Spec.legitimate cfg then
            Alcotest.fail "terminal <> proper"))
    [ Stabgraph.Graph.chain 4; Stabgraph.Graph.ring 4; Stabgraph.Graph.star 4 ]

let test_coloring_self_under_central () =
  List.iter
    (fun g ->
      let p = Stabalgo.Coloring.make g in
      let v = Checker.analyze (Statespace.build p) Statespace.Central (Stabalgo.Coloring.spec g) in
      Alcotest.(check bool) "self-stabilizing centrally" true (Checker.self_stabilizing v))
    [
      Stabgraph.Graph.chain 4;
      Stabgraph.Graph.ring 4;
      Stabgraph.Graph.ring 5;
      Stabgraph.Graph.star 4;
      (* K3 *)
      Stabgraph.Graph.ring 3;
    ]

let test_coloring_weak_not_self_distributed () =
  List.iter
    (fun g ->
      let p = Stabalgo.Coloring.make g in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed (Stabalgo.Coloring.spec g)
      in
      Alcotest.(check bool) "weak" true (Checker.weak_stabilizing v);
      Alcotest.(check bool) "not self" false (Checker.self_stabilizing v))
    [ Stabgraph.Graph.chain 4; Stabgraph.Graph.ring 5; (* K3 *) Stabgraph.Graph.ring 3 ]

let test_coloring_transformed_prob1_sync () =
  let g = Stabgraph.Graph.ring 4 in
  let tp = Transformer.randomize (Stabalgo.Coloring.make g) in
  let tspec = Transformer.lift_spec (Stabalgo.Coloring.spec g) in
  let space = Statespace.build tp in
  let legitimate = Statespace.legitimate_set space tspec in
  let chain = Markov.of_space space Markov.Sync in
  Alcotest.(check bool) "prob-1 under sync" true
    (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate))

let test_coloring_smallest_free () =
  let g = Stabgraph.Graph.star 4 in
  (* center 0 with neighbors colored 0,1,2 -> smallest free is 3. *)
  let cfg = [| 0; 0; 1; 2 |] in
  Alcotest.(check bool) "center in conflict" true
    (List.mem 0 (conflicts g cfg));
  let p = Stabalgo.Coloring.make g in
  match Protocol.step_outcomes p cfg [ 0 ] with
  | [ (next, _) ] -> Alcotest.(check int) "recolors to 3" 3 next.(0)
  | _ -> Alcotest.fail "deterministic step expected"

let qcheck_coloring_conflicts_monotone_central =
  QCheck.Test.make ~count:150 ~name:"coloring conflicts never increase under central runs"
    QCheck.(pair small_int (int_range 3 7))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.ring n in
      let p = Stabalgo.Coloring.make g in
      let init = Protocol.random_config rng p in
      let r = Engine.run ~record:true ~max_steps:30 rng p (Scheduler.central_random ()) ~init in
      let counts =
        List.map
          (fun cfg -> List.length (conflicts g cfg))
          (Engine.configs r.Engine.trace)
      in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      non_increasing counts)

let qcheck_coloring_stays_in_palette =
  QCheck.Test.make ~count:100 ~name:"coloring never leaves its palette"
    QCheck.(pair small_int (int_range 3 8))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let k = Stabgraph.Graph.max_degree g + 1 in
      let p = Stabalgo.Coloring.make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:false ~max_steps:50 rng p (Scheduler.distributed_random ()) ~init
      in
      Array.for_all (fun c -> c >= 0 && c < k) r.Engine.final)

(* --- matching --- *)

(* Mutually-pointing pairs [(p, q)] with [p < q], ascending; a pointer
   is a local neighbor index. *)
let matched_pairs g cfg =
  let target p =
    match cfg.(p) with
    | Stabalgo.Matching.Null -> None
    | Stabalgo.Matching.Pointer k -> Some (Stabgraph.Graph.neighbor g p k)
  in
  List.filter_map
    (fun p ->
      match target p with
      | Some q when p < q && target q = Some p -> Some (p, q)
      | Some _ | None -> None)
    (List.init (Stabgraph.Graph.size g) Fun.id)

let test_matching_terminal_iff_maximal () =
  List.iter
    (fun g ->
      let p = Stabalgo.Matching.make g in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if Protocol.is_terminal p cfg <> (Stabalgo.Matching.spec g).Spec.legitimate cfg then
            Alcotest.fail "terminal <> maximal matching"))
    [
      Stabgraph.Graph.chain 4;
      Stabgraph.Graph.chain 5;
      Stabgraph.Graph.ring 4;
      Stabgraph.Graph.ring 5;
      Stabgraph.Graph.star 4;
    ]

let test_matching_self_stabilizing_all_classes () =
  (* The checker-established surprise: the determinized variant
     self-stabilizes under every class on small instances. *)
  List.iter
    (fun g ->
      let p = Stabalgo.Matching.make g in
      let spec = Stabalgo.Matching.spec g in
      let space = Statespace.build p in
      List.iter
        (fun cls ->
          let v = Checker.analyze space cls spec in
          Alcotest.(check bool) "self-stabilizing" true (Checker.self_stabilizing v))
        [ Statespace.Central; Statespace.Distributed; Statespace.Synchronous ])
    [ Stabgraph.Graph.chain 5; Stabgraph.Graph.ring 5; Stabgraph.Graph.star 4;
      (* K4 *)
      Stabgraph.Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] ]

let test_matched_pairs () =
  let g = Stabgraph.Graph.chain 4 in
  (* 0 <-> 1 married; 2 points at 3; 3 null. *)
  let open Stabalgo.Matching in
  let cfg = [| Pointer 0; Pointer 0; Pointer 1; Null |] in
  Alcotest.(check (list (pair int int))) "one pair" [ (0, 1) ] (matched_pairs g cfg);
  Alcotest.(check bool) "not maximal (dangling pointer)" false
    ((spec g).Spec.legitimate cfg)

let test_matching_rules () =
  let g = Stabgraph.Graph.chain 3 in
  let p = Stabalgo.Matching.make g in
  let open Stabalgo.Matching in
  (* R1: 1 is proposed to by 0 -> marries the lowest proposer. *)
  let cfg = [| Pointer 0; Null; Null |] in
  (match Protocol.enabled_action p cfg 1 with
  | Some a -> Alcotest.(check string) "R1" "R1" a.Protocol.label
  | None -> Alcotest.fail "R1 expected");
  (* R2: nobody proposes to 0, neighbor 1 null -> propose. *)
  let cfg = [| Null; Null; Null |] in
  (match Protocol.enabled_action p cfg 0 with
  | Some a -> Alcotest.(check string) "R2" "R2" a.Protocol.label
  | None -> Alcotest.fail "R2 expected");
  (* R3: 0 points at 1, 1 points at 2 -> abandon. *)
  let cfg = [| Pointer 0; Pointer 1; Null |] in
  match Protocol.enabled_action p cfg 0 with
  | Some a -> Alcotest.(check string) "R3" "R3" a.Protocol.label
  | None -> Alcotest.fail "R3 expected"

let test_matching_mutual_proposals_marry () =
  (* The key semantic point: two nulls proposing to each other in one
     distributed step become married. *)
  let g = Stabgraph.Graph.chain 2 in
  let p = Stabalgo.Matching.make g in
  let open Stabalgo.Matching in
  match Protocol.step_outcomes p [| Null; Null |] [ 0; 1 ] with
  | [ (next, _) ] ->
    Alcotest.(check (list (pair int int))) "married" [ (0, 1) ] (matched_pairs g next);
    Alcotest.(check bool) "maximal" true ((spec g).Spec.legitimate next)
  | _ -> Alcotest.fail "deterministic step expected"

let qcheck_matching_pairs_disjoint =
  QCheck.Test.make ~count:150 ~name:"matched pairs are vertex-disjoint along runs"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let p = Stabalgo.Matching.make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:true ~max_steps:40 rng p (Scheduler.distributed_random ()) ~init
      in
      List.for_all
        (fun cfg ->
          let pairs = matched_pairs g cfg in
          let vertices = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
          List.length vertices = List.length (List.sort_uniq compare vertices))
        (Engine.configs r.Engine.trace))

let qcheck_matching_terminal_runs_are_maximal =
  QCheck.Test.make ~count:100 ~name:"matching runs end in maximal matchings"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let p = Stabalgo.Matching.make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:false ~max_steps:2_000 rng p (Scheduler.central_random ()) ~init
      in
      match r.Engine.stop with
      | Engine.Terminal -> (Stabalgo.Matching.spec g).Spec.legitimate r.Engine.final
      | Engine.Exhausted | Engine.Converged | Engine.Stalled -> true)

let suite =
  [
    Alcotest.test_case "coloring validation" `Quick test_coloring_validation;
    Alcotest.test_case "coloring terminal iff proper" `Quick test_coloring_terminal_iff_proper;
    Alcotest.test_case "coloring self central" `Quick test_coloring_self_under_central;
    Alcotest.test_case "coloring weak distributed" `Quick test_coloring_weak_not_self_distributed;
    Alcotest.test_case "coloring transformed sync" `Quick test_coloring_transformed_prob1_sync;
    Alcotest.test_case "coloring smallest free" `Quick test_coloring_smallest_free;
    Qcheck_seeded.to_alcotest qcheck_coloring_conflicts_monotone_central;
    Qcheck_seeded.to_alcotest qcheck_coloring_stays_in_palette;
    Alcotest.test_case "matching terminal iff maximal" `Quick test_matching_terminal_iff_maximal;
    Alcotest.test_case "matching self everywhere" `Slow test_matching_self_stabilizing_all_classes;
    Alcotest.test_case "matched pairs" `Quick test_matched_pairs;
    Alcotest.test_case "matching rules" `Quick test_matching_rules;
    Alcotest.test_case "mutual proposals marry" `Quick test_matching_mutual_proposals_marry;
    Qcheck_seeded.to_alcotest qcheck_matching_pairs_disjoint;
    Qcheck_seeded.to_alcotest qcheck_matching_terminal_runs_are_maximal;
  ]
