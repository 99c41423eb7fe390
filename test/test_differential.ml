(* Differential tests for the explicit-state engine.

   Every checker entry point whose output feeds a reproduced result —
   [analyze], [pseudo_stabilizing], [k_stabilizing], [best_case_steps],
   [worst_case_steps] — is rendered into one canonical string per
   (instance, scheduler class) and compared against fixtures captured
   from the pre-rework checker (Expected_verdicts.fixtures). Any
   behavioural drift in the engine — a different witness cycle, a
   reordered SCC, a changed distance — fails these tests.

   Regenerating the fixtures (only when an intentional semantic change
   is made):

     STAB_DUMP_VERDICTS=test/expected_verdicts.ml \
       dune exec test/test_main.exe -- test differential

   then re-run the tests without the variable. *)

open Stabcore
open Stabexp

(* The portfolio at small N. Keep spaces small: the full matrix runs
   [analyze] plus the taxonomy checks under all three classes. *)
let specs =
  [
    ("token-ring", "ring:3", false);
    ("token-ring", "ring:4", false);
    ("token-ring", "ring:3", true);
    ("leader-tree", "chain:3", false);
    ("leader-tree", "chain:4", false);
    ("leader-tree", "star:4", false);
    ("two-bool", "ring:3", false);
    ("two-bool", "ring:3", true);
    ("centers", "chain:4", false);
    ("center-leader", "chain:3", false);
    ("dijkstra", "ring:3", false);
    ("dijkstra-3state", "ring:4", false);
    ("coloring", "ring:4", false);
    ("matching", "chain:4", false);
    ("bfs-tree", "ring:4", false);
    ("mis", "ring:4", false);
    ("herman", "ring:5", false);
  ]

let instances () =
  List.map
    (fun (name, topology, transformed) ->
      let tag =
        Printf.sprintf "%s%s@%s" (if transformed then "trans:" else "") name topology
      in
      (tag, Registry.find ~name ~topology ~transformed ()))
    specs

let classes =
  [ Statespace.Central; Statespace.Distributed; Statespace.Synchronous ]

let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
let int_array a = ints (Array.to_list a)

let render_result ok_tag = function
  | Ok () -> ok_tag
  | Error d -> (
    match d with
    | Checker.Cycle cycle -> "cycle" ^ ints cycle
    | Checker.Dead_end c -> Printf.sprintf "dead:%d" c)

let render_closure = function
  | Ok () -> "ok"
  | Error Checker.Empty_legitimate_set -> "empty"
  | Error (Checker.Escape { config; active; successor }) ->
    Printf.sprintf "escape(%d,%s,%d)" config (ints active) successor
  | Error (Checker.Step_spec { config; successor }) ->
    Printf.sprintf "stepspec(%d,%d)" config successor

let render_witness = function None -> "none" | Some w -> ints w

(* One canonical line per (instance, class): every field of the
   verdict plus the taxonomy and metric entry points. *)
let canonical (Registry.Entry e) cls =
  let space = Statespace.build e.protocol in
  let v = Checker.analyze space cls e.spec in
  let g = Checker.expand space cls in
  let legitimate = Statespace.legitimate_set space e.spec in
  let pseudo = Checker.pseudo_stabilizing space g ~legitimate in
  let k1 = Checker.k_stabilizing space g ~legitimate ~k:1 in
  let best = Checker.best_case_steps space g ~legitimate in
  let best_rendered =
    int_array (Array.map (fun d -> if d = max_int then -1 else d) best)
  in
  let worst =
    match Checker.worst_case_steps space g ~legitimate with
    | None -> "none"
    | Some values -> int_array values
  in
  String.concat "|"
    [
      Printf.sprintf "edges=%d" (Checker.graph_edge_count g);
      "closure=" ^ render_closure v.Checker.closure;
      ( "possible="
      ^ match v.Checker.possible with Ok () -> "ok" | Error c -> Printf.sprintf "err:%d" c );
      "certain=" ^ render_result "ok" v.Checker.certain;
      "sf=" ^ render_witness (Lazy.force v.Checker.strongly_fair_diverges);
      "wf=" ^ render_witness (Lazy.force v.Checker.weakly_fair_diverges);
      "dead=" ^ ints v.Checker.dead_ends;
      "pseudo=" ^ render_result "ok" pseudo;
      "k1=" ^ render_result "ok" k1;
      "best=" ^ best_rendered;
      "worst=" ^ worst;
    ]

let key tag cls = (tag, Format.asprintf "%a" Statespace.pp_sched_class cls)

let all () =
  List.concat_map
    (fun (tag, entry) ->
      List.map (fun cls -> (key tag cls, canonical entry cls)) classes)
    (instances ())

(* Fixture regeneration hook; see the module comment. *)
let () =
  match Sys.getenv_opt "STAB_DUMP_VERDICTS" with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc
      "(* Pre-rework checker verdicts, captured as canonical strings.\n\n\
      \   Generated by the dump hook in test_differential.ml (see there for\n\
      \   the regeneration command). DO NOT edit by hand: these fixtures pin\n\
      \   the exact output of the explicit-state engine — verdicts, witnesses,\n\
      \   taxonomy results and convergence metrics — so that engine rework\n\
      \   (packing, parallelism, shared passes) can be checked to be\n\
      \   bit-identical against the trusted baseline. *)\n\n\
       let fixtures : ((string * string) * string) list =\n  [\n";
    List.iter
      (fun ((label, cls), s) ->
        Printf.fprintf oc "    ((%S, %S),\n     %S);\n" label cls s)
      (all ());
    output_string oc "  ]\n";
    close_out oc;
    Printf.printf "wrote %d fixtures to %s\n%!" (List.length (all ())) path

let test_verdicts_match_fixtures () =
  let computed = all () in
  Alcotest.(check int)
    "same number of fixtures" (List.length computed)
    (List.length Expected_verdicts.fixtures);
  List.iter
    (fun ((label, cls), s) ->
      match List.assoc_opt (label, cls) Expected_verdicts.fixtures with
      | None -> Alcotest.failf "no fixture for %s under %s" label cls
      | Some expected ->
        Alcotest.(check string) (Printf.sprintf "%s under %s" label cls) expected s)
    computed

(* [analyze] must derive each shared intermediate exactly once, even
   when both deferred fairness verdicts are forced. The checker's
   counters only tick while a sink is installed. *)
let counting f =
  Stabobs.Obs.install (Stabobs.Obs.null_sink ());
  Fun.protect ~finally:Stabobs.Obs.clear f

let token_ring_instance () =
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  (Statespace.build p, Stabalgo.Token_ring.spec ~n)

let analyze_counting () =
  let space, spec = token_ring_instance () in
  let value = Stabobs.Obs.Counter.value in
  counting @@ fun () ->
  let term0 = value Stabobs.Obs.checker_terminal_scans in
  let scc0 = value Stabobs.Obs.checker_scc_builds in
  let v = Checker.analyze space Statespace.Distributed spec in
  ignore (Lazy.force v.Checker.strongly_fair_diverges);
  ignore (Lazy.force v.Checker.weakly_fair_diverges);
  ( value Stabobs.Obs.checker_terminal_scans - term0,
    value Stabobs.Obs.checker_scc_builds - scc0 )

(* Reaching [L] is decided forward ([Digraph.reaches]), so no verdict
   path builds a reverse graph; [Digraph.reverse] ticks the counter on
   every build, wherever it is called from. *)
let test_no_reverse_build () =
  let space, spec = token_ring_instance () in
  let legitimate = Statespace.legitimate_set space spec in
  let builds () = Stabobs.Obs.Counter.value Stabobs.Obs.checker_reverse_builds in
  counting @@ fun () ->
  let rev0 = builds () in
  let v = Checker.analyze space Statespace.Distributed spec in
  ignore (Lazy.force v.Checker.strongly_fair_diverges);
  ignore (Lazy.force v.Checker.weakly_fair_diverges);
  let chain = Markov.of_space space Markov.Distributed_uniform in
  ignore (Markov.converges_with_prob_one chain ~legitimate);
  ignore (Markov.hitting_stats_checked chain ~legitimate);
  ignore (Markov.absorption_probabilities chain ~legitimate);
  ignore
    (Onthefly.analyze space Statespace.Distributed spec
       ~inits:(List.init 3 (Statespace.config space)));
  ignore (Resilience.analyze space Statespace.Distributed spec ~ks:[ 0; 1 ]);
  Alcotest.(check int) "no reverse-graph build" 0 (builds () - rev0)

let test_single_terminal_scan () =
  let term_scans, _ = analyze_counting () in
  Alcotest.(check int) "one terminal scan per analyze" 1 term_scans

let test_single_scc_decomposition () =
  (* Both fairness checks share one decomposition of C \ L; the Streett
     refinement finds its witness in the first accepting component on
     this instance, so no pruned re-decomposition happens either. *)
  let _, scc_passes = analyze_counting () in
  Alcotest.(check int) "one SCC decomposition per analyze" 1 scc_passes

let test_profiling_does_not_perturb_verdicts () =
  (* Telemetry must be read-only: every canonical verdict line, over
     the full portfolio and all three classes, must be bit-identical
     with an active sink receiving every span and counter snapshot. *)
  let baseline = all () in
  let sink, _events = Stabobs.Obs.memory_sink () in
  Stabobs.Obs.install sink;
  let instrumented = Fun.protect ~finally:Stabobs.Obs.clear all in
  Alcotest.(check int)
    "same instance count" (List.length baseline) (List.length instrumented);
  List.iter2
    (fun ((label, cls), base) ((label', cls'), inst) ->
      Alcotest.(check string) "same key order" (label ^ "/" ^ cls) (label' ^ "/" ^ cls');
      Alcotest.(check string) (Printf.sprintf "%s under %s" label cls) base inst)
    baseline instrumented

let test_gc_and_dist_do_not_perturb_verdicts () =
  (* Same guard, maximum observability: a live sink with GC sampling
     on (spans carry allocation deltas, gc.* counters tick) and the
     Dist recorders lit. Verdicts must stay bit-identical to dark. *)
  let baseline = all () in
  let sink, _events = Stabobs.Obs.memory_sink () in
  Stabobs.Obs.install sink;
  Stabobs.Obs.set_gc_sampling true;
  Stabobs.Dist.reset_all ();
  let instrumented =
    Fun.protect
      ~finally:(fun () ->
        Stabobs.Obs.set_gc_sampling false;
        Stabobs.Obs.clear ())
      all
  in
  Alcotest.(check bool)
    "dist recorders saw the expansions" true
    (Stabobs.Dist.count Stabobs.Dist.checker_out_degree > 0);
  Stabobs.Dist.reset_all ();
  Alcotest.(check int)
    "same instance count" (List.length baseline) (List.length instrumented);
  List.iter2
    (fun ((label, cls), base) ((label', cls'), inst) ->
      Alcotest.(check string) "same key order" (label ^ "/" ^ cls) (label' ^ "/" ^ cls');
      Alcotest.(check string) (Printf.sprintf "%s under %s" label cls) base inst)
    baseline instrumented

(* The backward BFS distance is the one pass that still needs the
   predecessor relation; the graph keeps no memo, so every call builds
   its own. *)
let test_best_case_builds_per_call () =
  let space, spec = token_ring_instance () in
  let g = Checker.expand space Statespace.Distributed in
  let legitimate = Statespace.legitimate_set space spec in
  counting @@ fun () ->
  let builds () = Stabobs.Obs.Counter.value Stabobs.Obs.checker_reverse_builds in
  let rev0 = builds () in
  ignore (Checker.best_case_steps space g ~legitimate);
  Alcotest.(check int) "first call" 1 (builds () - rev0);
  ignore (Checker.best_case_steps space g ~legitimate);
  Alcotest.(check int) "second call" 2 (builds () - rev0);
  ignore (Checker.convergence_radius_histogram space g ~legitimate);
  Alcotest.(check int) "histogram" 3 (builds () - rev0)

let suite =
  [
    Alcotest.test_case "verdicts match pre-rework fixtures" `Quick
      test_verdicts_match_fixtures;
    Alcotest.test_case "verdict paths build no reverse graph" `Quick test_no_reverse_build;
    Alcotest.test_case "analyze scans terminals once" `Quick test_single_terminal_scan;
    Alcotest.test_case "analyze decomposes SCCs once" `Quick
      test_single_scc_decomposition;
    Alcotest.test_case "best_case_steps builds one reverse per call" `Quick
      test_best_case_builds_per_call;
    Alcotest.test_case "profiling does not perturb verdicts" `Quick
      test_profiling_does_not_perturb_verdicts;
    Alcotest.test_case "gc sampling and dists do not perturb verdicts" `Quick
      test_gc_and_dist_do_not_perturb_verdicts;
  ]
