(* Tests for the explicit-state space and spec plumbing, and for the
   Monte-Carlo estimator. *)

open Stabcore

let test_count_and_roundtrip () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  Alcotest.(check int) "9 configurations" 9 (Statespace.count space);
  for c = 0 to 8 do
    Alcotest.(check int) "code/config roundtrip" c
      (Statespace.code space (Statespace.config space c))
  done

let test_build_guard () =
  let p = Stabalgo.Token_ring.make ~n:6 in
  Alcotest.check_raises "too large"
    (Invalid_argument "Statespace.build: 4096 configurations exceed the 100 limit")
    (fun () -> ignore (Statespace.build ~max_configs:100 p))

let test_enabled_matches_protocol () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  for c = 0 to Statespace.count space - 1 do
    Alcotest.(check (list int)) "enabled sets agree"
      (Protocol.enabled_processes p (Statespace.config space c))
      (Statespace.enabled space c)
  done

let test_transitions_central () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let code = Statespace.code space [| 1; 1 |] in
  let ts = Statespace.transitions space Statespace.Central code in
  Alcotest.(check int) "two singleton subsets" 2 (List.length ts);
  List.iter
    (fun (active, outcomes) ->
      Alcotest.(check int) "singleton" 1 (List.length active);
      Alcotest.(check int) "deterministic outcome" 1 (List.length outcomes))
    ts

let test_transitions_distributed_subsets () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let code = Statespace.code space [| 2; 2 |] in
  let ts = Statespace.transitions space Statespace.Distributed code in
  let subsets = List.map fst ts |> List.sort compare in
  Alcotest.(check (list (list int))) "all non-empty subsets" [ [ 0 ]; [ 0; 1 ]; [ 1 ] ]
    subsets

let test_transitions_synchronous () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let code = Statespace.code space [| 0; 0 |] in
  match Statespace.transitions space Statespace.Synchronous code with
  | [ (active, [ (next, w) ]) ] ->
    Alcotest.(check (list int)) "all enabled" [ 0; 1 ] active;
    Alcotest.(check (float 1e-9)) "prob 1" 1.0 w;
    Alcotest.(check (array int)) "both bump" [| 1; 1 |] (Statespace.config space next)
  | _ -> Alcotest.fail "expected a single synchronous transition"

let test_terminal_no_transitions () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let code = Statespace.code space [| 0; 1 |] in
  Alcotest.(check int) "no transitions" 0
    (List.length (Statespace.transitions space Statespace.Distributed code))

let test_successors_dedup () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let code = Statespace.code space [| 1; 1 |] in
  let succ = Statespace.successors space Statespace.Distributed code in
  (* (2,1), (1,2), (2,2): three distinct successors. *)
  Alcotest.(check int) "three" 3 (List.length succ);
  Alcotest.(check (list int)) "sorted" (List.sort compare succ) succ

let test_subset_count () =
  Alcotest.(check int) "2^3-1" 7 (Statespace.subset_count 3);
  Alcotest.(check int) "2^0-1" 0 (Statespace.subset_count 0)

let test_legitimate_set () =
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let set = Statespace.legitimate_set space Fixtures.mod3_spec in
  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 set in
  Alcotest.(check int) "6 distinct-value configs" 6 count

let test_sched_class_pp () =
  Alcotest.(check string) "central" "central"
    (Format.asprintf "%a" Statespace.pp_sched_class Statespace.Central)

(* --- Expander against the reference path --- *)

type system = System : string * (unit -> 'a Statespace.t) -> system

let classes = Statespace.[ Central; Distributed; Synchronous ]

let reference_systems =
  let build p () = Statespace.build p in
  List.concat
    [
      List.init 30 (fun seed ->
          System
            (Printf.sprintf "random-%d" seed, build (Test_random_systems.random_protocol seed)));
      List.init 30 (fun seed ->
          System
            ( Printf.sprintf "random-coin-%d" seed,
              build (Test_random_systems.random_randomized_protocol seed) ));
      [
        System ("mod3", build (Fixtures.mod3_protocol ()));
        System ("coin", build (Fixtures.coin_protocol ()));
        System ("token-ring ring:4", build (Stabalgo.Token_ring.make ~n:4));
        System
          ( "transformed random-3",
            build (Transformer.randomize (Test_random_systems.random_protocol 3)) );
        System
          ( "token-ring ring:6 quotient",
            fun () -> Statespace.quotient (Statespace.build (Stabalgo.Token_ring.make ~n:6)) );
      ];
    ]

let bits outcomes = List.map (fun (code, w) -> (code, Int64.bits_of_float w)) outcomes

(* The groups of configuration [c] rebuilt without the expander:
   enabled processes, every activation subset enumerated explicitly
   (ascending masks over the enabled list under the distributed class),
   [Protocol.step_outcomes], [Encoding.encode] and, on a quotient,
   [rep_of]. *)
let reference_groups space cls c =
  let p = Statespace.protocol space in
  let enc = Statespace.encoding space in
  let cfg = Encoding.decode enc (Statespace.representative space c) in
  let project =
    match Statespace.quotient_view space with
    | None -> Fun.id
    | Some (_, _, rep_of, _) -> fun code -> rep_of.(code)
  in
  let enabled = Array.of_list (Protocol.enabled_processes p cfg) in
  let k = Array.length enabled in
  let members mask =
    List.filter_map
      (fun i -> if mask land (1 lsl i) <> 0 then Some enabled.(i) else None)
      (List.init k Fun.id)
  in
  let subsets =
    match cls with
    | Statespace.Central -> List.map (fun q -> [ q ]) (Array.to_list enabled)
    | Statespace.Synchronous -> if k = 0 then [] else [ Array.to_list enabled ]
    | Statespace.Distributed -> List.init ((1 lsl k) - 1) (fun m -> members (m + 1))
  in
  List.map
    (fun subset ->
      ( List.fold_left (fun mask q -> mask lor (1 lsl q)) 0 subset,
        bits
          (List.map
             (fun (cfg', w) -> (project (Encoding.encode enc cfg'), w))
             (Protocol.step_outcomes p cfg subset)) ))
    subsets

(* One expander per (space, class), reused across every configuration,
   as a range of the expansion reuses it. *)
let expander_groups expand c =
  let groups = ref [] in
  expand c
    ~group:(fun mask -> groups := (mask, ref []) :: !groups)
    ~succ:(fun code w ->
      match !groups with
      | (_, outs) :: _ -> outs := (code, w) :: !outs
      | [] -> Alcotest.fail "successor before its group");
  List.rev_map (fun (mask, outs) -> (mask, bits (List.rev !outs))) !groups

(* The groups of configuration [c] in the checker's graph, replayed by
   its group iterator: each activated subset (derived from the one
   enabled mask) with its successors and their weights. In the
   [Subsets] layout each successor is a subset sum the kernel computes
   from the stored deltas. *)
let packed_groups g c =
  let groups = ref [] in
  Checker.iter_groups g c
    ~group:(fun active -> groups := (active, ref []) :: !groups)
    ~succ:(fun code w ->
      match !groups with
      | (_, outs) :: _ -> outs := (code, w) :: !outs
      | [] -> Alcotest.fail "successor before its group");
  List.rev_map (fun (mask, outs) -> (mask, bits (List.rev !outs))) !groups

(* The layout rule: [Subsets] exactly for a deterministic protocol on a
   full space under the distributed class, [Singleton] for any other
   deterministic graph, [Outcomes] for a randomized protocol. *)
let expected_layout space cls =
  match (Protocol.deterministic (Statespace.protocol space), cls) with
  | false, _ -> "outcomes"
  | true, Statespace.Distributed when not (Statespace.is_quotient space) -> "subsets"
  | true, _ -> "singleton"

let layout_name g =
  match (Checker.packing g).Checker.groups with
  | Checker.Singleton -> "singleton"
  | Checker.Subsets -> "subsets"
  | Checker.Outcomes _ -> "outcomes"

let test_expander_matches_reference () =
  let layouts = ref [] in
  List.iter
    (fun (System (name, build)) ->
      let space = build () in
      List.iter
        (fun cls ->
          let expand = Statespace.expander space cls in
          let enabled_mask = Statespace.enabled_mask space in
          let g = Checker.expand space cls in
          let layout = layout_name g in
          layouts := layout :: !layouts;
          if layout <> expected_layout space cls then
            Alcotest.failf "%s, %a: the graph has the %s layout, the input selects %s" name
              Statespace.pp_sched_class cls layout (expected_layout space cls);
          for c = 0 to Statespace.count space - 1 do
            let where = Format.asprintf "%s, %a, config %d" name Statespace.pp_sched_class cls c in
            let expected = reference_groups space cls c in
            if expander_groups expand c <> expected then
              Alcotest.failf "%s: expander groups differ from the reference path" where;
            let enabled =
              List.fold_left
                (fun mask q -> mask lor (1 lsl q))
                0
                (Protocol.enabled_processes (Statespace.protocol space)
                   (Statespace.config space c))
            in
            if enabled_mask c <> enabled then
              Alcotest.failf "%s: enabled_mask gives %#x, reference %#x" where (enabled_mask c)
                enabled;
            if Statespace.group_count cls enabled <> List.length expected then
              Alcotest.failf "%s: group_count gives %d groups, reference %d" where
                (Statespace.group_count cls enabled) (List.length expected);
            if packed_groups g c <> expected then
              Alcotest.failf "%s: the checker graph's groups differ from the reference path" where;
            let listed =
              List.map
                (fun (active, outcomes) ->
                  (List.fold_left (fun mask q -> mask lor (1 lsl q)) 0 active, bits outcomes))
                (Statespace.transitions space cls c)
            in
            if listed <> expected then
              Alcotest.failf "%s: transitions differ from the reference path" where
          done)
        classes)
    reference_systems;
  List.iter
    (fun layout ->
      if not (List.mem layout !layouts) then
        Alcotest.failf "the reference systems never produce the %s layout" layout)
    [ "singleton"; "subsets"; "outcomes" ]

(* The packed layout is the same at widths 1 and 2. Clearing the grain
   estimates before each expansion makes the pool open with 2 * width
   chunks, so at width 2 both passes split wherever the space is large
   enough (at least two 64-configuration chunks). A fresh space per
   expansion defeats the expansion cache. *)
let layout space cls =
  let before = Stabobs.Obs.Counter.value Stabobs.Obs.pool_tasks in
  Pool.Grain.reset_all ();
  let g = Checker.expand space cls in
  let tasks = Stabobs.Obs.Counter.value Stabobs.Obs.pool_tasks - before in
  let pk = Checker.packing g and fwd = Checker.successors g in
  let groups =
    match pk.Checker.groups with
    | Checker.Singleton | Checker.Subsets -> (layout_name g, None)
    | Checker.Outcomes { grp_off; succ_off; succ_w } ->
      (layout_name g, Some (grp_off, succ_off, Array.map Int64.bits_of_float succ_w))
  in
  (* The row array itself: targets, or the deltas in the [Subsets]
     layout, compared entry for entry along with the row kind. *)
  let rows =
    match fwd.Digraph.rows with
    | Digraph.Edges e -> ("edges", e)
    | Digraph.Subsets d -> ("subsets", d)
  in
  ((pk.Checker.enabled, groups, fwd.Digraph.off, rows), tasks)

let test_expand_layout_across_widths () =
  Stabobs.Obs.install (Stabobs.Obs.null_sink ());
  Fun.protect
    ~finally:(fun () ->
      Pool.set_width 1;
      Stabobs.Obs.clear ())
  @@ fun () ->
  let systems =
    reference_systems
    @ [
        System ("dijkstra-3state ring:6", fun () ->
            Statespace.build (Stabalgo.Dijkstra_three.make ~n:6));
        System ("transformed token-ring ring:3", fun () ->
            Statespace.build (Transformer.randomize (Stabalgo.Token_ring.make ~n:3)));
        System ("token-ring ring:8 quotient", fun () ->
            Statespace.quotient (Statespace.build (Stabalgo.Token_ring.make ~n:8)));
      ]
  in
  List.iter
    (fun (System (name, build)) ->
      List.iter
        (fun cls ->
          Pool.set_width 1;
          let reference, _ = layout (build ()) cls in
          Pool.set_width 2;
          let space = build () in
          let got, tasks = layout space cls in
          let where = Format.asprintf "%s, %a" name Statespace.pp_sched_class cls in
          if got <> reference then Alcotest.failf "%s: width 2 packs differently" where;
          if Statespace.count space >= 128 && tasks < 2 then
            Alcotest.failf "%s: width 2 never split the expansion" where)
        classes)
    systems

(* --- Spec --- *)

let test_terminal_spec () =
  let p = Fixtures.mod3_protocol () in
  let spec = Spec.terminal_spec ~name:"silent" p in
  Alcotest.(check bool) "terminal config legitimate" true (spec.Spec.legitimate [| 0; 1 |]);
  Alcotest.(check bool) "active config illegitimate" false (spec.Spec.legitimate [| 1; 1 |])

let test_spec_project () =
  let spec = Spec.make ~name:"sum-even" (fun cfg -> (cfg.(0) + cfg.(1)) mod 2 = 0) in
  let lifted = Spec.project fst spec in
  Alcotest.(check bool) "projected" true (lifted.Spec.legitimate [| (2, "x"); (4, "y") |]);
  Alcotest.(check bool) "projected false" false
    (lifted.Spec.legitimate [| (1, "x"); (4, "y") |])

(* --- Monte-Carlo --- *)

let test_montecarlo_estimate () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 1 in
  let r =
    Montecarlo.estimate ~runs:500 ~max_steps:10_000 rng p Scheduler.central_first
      Fixtures.coin_spec
  in
  Alcotest.(check int) "no timeouts" 0 r.Montecarlo.timeouts;
  match r.Montecarlo.summary with
  | None -> Alcotest.fail "expected samples"
  | Some s ->
    (* Initial state is uniform over {0,1,2}; from 0/1 expected 2 steps
       (geometric, p=1/2), from 2 zero steps: mean = 2/3 * 2 = 4/3. *)
    Alcotest.(check bool) "mean near 4/3" true
      (Float.abs (s.Stabstats.Stats.mean -. (4.0 /. 3.0)) < 0.25)

let test_montecarlo_timeouts () =
  (* two_bool under a central scheduler never converges from (f,f). *)
  let p = Stabalgo.Two_bool.make () in
  let rng = Stabrng.Rng.create 2 in
  let r =
    Montecarlo.estimate ~init:(fun _ -> [| false; false |]) ~runs:20 ~max_steps:50 rng p
      Scheduler.central_random Stabalgo.Two_bool.spec
  in
  Alcotest.(check int) "all time out" 20 r.Montecarlo.timeouts;
  Alcotest.(check bool) "no summary" true (r.Montecarlo.summary = None)

let test_montecarlo_fixed_init () =
  let n = 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let rng = Stabrng.Rng.create 3 in
  let init = Stabalgo.Token_ring.legitimate_config ~n in
  let r =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:50 ~max_steps:100 rng p
      Scheduler.central_random (Stabalgo.Token_ring.spec ~n)
  in
  (match r.Montecarlo.summary with
  | Some s -> Alcotest.(check (float 1e-9)) "zero steps from legitimate" 0.0 s.Stabstats.Stats.mean
  | None -> Alcotest.fail "expected summary");
  Alcotest.(check int) "50 runs" 50 (Array.length r.Montecarlo.times)

let test_montecarlo_pp () =
  let r = Montecarlo.of_samples ~times:[||] ~rounds:[||] ~timeouts:3 in
  Alcotest.(check string) "render" "no converged runs (3 timeouts)"
    (Format.asprintf "%a" Montecarlo.pp_result r)

let suite =
  [
    Alcotest.test_case "count/roundtrip" `Quick test_count_and_roundtrip;
    Alcotest.test_case "build guard" `Quick test_build_guard;
    Alcotest.test_case "enabled matches protocol" `Quick test_enabled_matches_protocol;
    Alcotest.test_case "central transitions" `Quick test_transitions_central;
    Alcotest.test_case "distributed subsets" `Quick test_transitions_distributed_subsets;
    Alcotest.test_case "synchronous transition" `Quick test_transitions_synchronous;
    Alcotest.test_case "terminal has none" `Quick test_terminal_no_transitions;
    Alcotest.test_case "successors dedup" `Quick test_successors_dedup;
    Alcotest.test_case "expander = reference path" `Quick test_expander_matches_reference;
    Alcotest.test_case "expand layout across widths" `Quick test_expand_layout_across_widths;
    Alcotest.test_case "subset count" `Quick test_subset_count;
    Alcotest.test_case "legitimate set" `Quick test_legitimate_set;
    Alcotest.test_case "sched class pp" `Quick test_sched_class_pp;
    Alcotest.test_case "terminal spec" `Quick test_terminal_spec;
    Alcotest.test_case "spec project" `Quick test_spec_project;
    Alcotest.test_case "montecarlo estimate" `Slow test_montecarlo_estimate;
    Alcotest.test_case "montecarlo timeouts" `Quick test_montecarlo_timeouts;
    Alcotest.test_case "montecarlo fixed init" `Quick test_montecarlo_fixed_init;
    Alcotest.test_case "montecarlo pp" `Quick test_montecarlo_pp;
  ]
