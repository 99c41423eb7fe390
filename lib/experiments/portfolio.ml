open Stabcore

type verdict_row = {
  algorithm : string;
  sched_class : string;
  weak : bool;
  self : bool;
  self_strongly_fair : bool;
  prob1_randomized : bool;
}

let classify_instance (Registry.Entry e) cls =
  let space = Statespace.build e.protocol in
  let v = Checker.analyze space cls e.spec in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space (Analysis.randomization cls) in
  {
    algorithm = e.label;
    sched_class = Format.asprintf "%a" Statespace.pp_sched_class cls;
    weak = Checker.weak_stabilizing v;
    self = Checker.self_stabilizing v;
    self_strongly_fair = Checker.self_stabilizing_strongly_fair v;
    prob1_randomized = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate);
  }

let instances () =
  [
    Registry.find ~name:"token-ring" ~topology:"ring:5" ();
    Registry.find ~name:"token-ring" ~topology:"ring:5" ~transformed:true ();
    Registry.find ~name:"leader-tree" ~topology:"chain:4" ();
    Registry.find ~name:"leader-tree" ~topology:"chain:4" ~transformed:true ();
    Registry.find ~name:"two-bool" ~topology:"ring:3" ();
    Registry.find ~name:"two-bool" ~topology:"ring:3" ~transformed:true ();
    Registry.find ~name:"centers" ~topology:"chain:5" ();
    Registry.find ~name:"center-leader" ~topology:"chain:4" ();
    Registry.find ~name:"dijkstra" ~topology:"ring:4" ();
    Registry.find ~name:"dijkstra-3state" ~topology:"ring:5" ();
    Registry.find ~name:"coloring" ~topology:"ring:4" ();
    Registry.find ~name:"matching" ~topology:"chain:5" ();
    Registry.find ~name:"bfs-tree" ~topology:"ring:4" ();
    Registry.find ~name:"mis" ~topology:"ring:5" ();
    (* Herman is designed for the synchronous daemon, but the checker
       handles the other classes uniformly (the deterministic [self]
       columns are vacuously false for a randomized protocol). *)
    Registry.find ~name:"herman" ~topology:"ring:5" ();
  ]

type taxonomy_row = {
  algorithm_t : string;
  class_t : string;
  weak_t : bool;
  pseudo : bool;
  one_stabilizing : bool;
  self_t : bool;
}

let taxonomy_instance (Registry.Entry e) cls =
  let space = Statespace.build e.protocol in
  let g = Checker.expand space cls in
  let legitimate = Statespace.legitimate_set space e.spec in
  let closure = Result.is_ok (Checker.check_closure space g e.spec) in
  (* Certain convergence implies possible convergence, so the
     reachability pass runs only for the systems that are not
     self-stabilizing. *)
  let self_t = closure && Result.is_ok (Checker.certain_convergence space g ~legitimate) in
  {
    algorithm_t = e.label;
    class_t = Format.asprintf "%a" Statespace.pp_sched_class cls;
    weak_t =
      self_t || (closure && Result.is_ok (Checker.possible_convergence space g ~legitimate));
    pseudo = Result.is_ok (Checker.pseudo_stabilizing space g ~legitimate);
    one_stabilizing =
      closure && Result.is_ok (Checker.k_stabilizing space g ~legitimate ~k:1);
    self_t;
  }

let taxonomy () =
  let rows =
    [
      taxonomy_instance (Registry.find ~name:"token-ring" ~topology:"ring:5" ()) Statespace.Distributed;
      taxonomy_instance (Registry.find ~name:"leader-tree" ~topology:"chain:4" ()) Statespace.Distributed;
      taxonomy_instance (Registry.find ~name:"two-bool" ~topology:"ring:3" ()) Statespace.Distributed;
      taxonomy_instance (Registry.find ~name:"centers" ~topology:"chain:5" ()) Statespace.Distributed;
      taxonomy_instance (Registry.find ~name:"dijkstra" ~topology:"ring:4" ()) Statespace.Central;
      taxonomy_instance (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Central;
      taxonomy_instance (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Distributed;
      taxonomy_instance (Registry.find ~name:"matching" ~topology:"chain:5" ()) Statespace.Distributed;
    ]
  in
  let table =
    Report.create ~title:"P2: the Section 1 taxonomy (weak / pseudo / 1-stab / self)"
      ~columns:[ "algorithm"; "class"; "weak"; "pseudo"; "1-stabilizing"; "self" ]
  in
  List.iter
    (fun r ->
      Report.add_row table
        [
          r.algorithm_t;
          r.class_t;
          Report.cell_bool r.weak_t;
          Report.cell_bool r.pseudo;
          Report.cell_bool r.one_stabilizing;
          Report.cell_bool r.self_t;
        ])
    rows;
  (rows, table)

let dijkstra_k_threshold ?(max_n = 5) () =
  let table =
    Report.create
      ~title:"E8: Dijkstra K-state threshold (central daemon; tight K = N-1)"
      ~columns:[ "n"; "k"; "self-stabilizing"; "pseudo-stabilizing" ]
  in
  for n = 3 to max_n do
    for k = 2 to n + 1 do
      let p = Stabalgo.Dijkstra_kstate.make ~n ~k () in
      let space = Statespace.build p in
      let g = Checker.expand space Statespace.Central in
      let legitimate = Statespace.legitimate_set space (Stabalgo.Dijkstra_kstate.spec ~n) in
      Report.add_row table
        [
          Report.cell_int n;
          Report.cell_int k;
          Report.cell_bool (Result.is_ok (Checker.certain_convergence space g ~legitimate));
          Report.cell_bool (Result.is_ok (Checker.pseudo_stabilizing space g ~legitimate));
        ]
    done
  done;
  table

let classify () =
  let rows =
    List.concat_map
      (fun entry ->
        List.map
          (fun cls -> classify_instance entry cls)
          [ Statespace.Central; Statespace.Distributed; Statespace.Synchronous ])
      (instances ())
  in
  let table =
    Report.create ~title:"P1: stabilization classes per algorithm and scheduler class"
      ~columns:
        [ "algorithm"; "class"; "weak"; "self"; "self (strongly fair)"; "prob-1 (randomized)" ]
  in
  List.iter
    (fun r ->
      Report.add_row table
        [
          r.algorithm;
          r.sched_class;
          Report.cell_bool r.weak;
          Report.cell_bool r.self;
          Report.cell_bool r.self_strongly_fair;
          Report.cell_bool r.prob1_randomized;
        ])
    rows;
  (rows, table)

(* --- crash faults: the Dolev-Herman question, exhaustively --- *)

type crash_row = {
  algorithm_c : string;
  class_c : string;
  processes : int;
  weak_survives : int;
  self_survives : int;
  stall_free : int;
}

let crash_instance (Registry.Entry e) cls =
  let n = Stabgraph.Graph.size e.protocol.Protocol.graph in
  let weak = ref 0 and self = ref 0 and stall_free = ref 0 in
  for f = 0 to n - 1 do
    (* Crash each location in turn and re-run the full exhaustive
       analysis on the induced sub-protocol: same state space, fewer
       transitions. *)
    let crashed = Faults.crash_protocol e.protocol ~failed:[ f ] in
    let space = Statespace.build crashed in
    let v = Checker.analyze space cls e.spec in
    if Checker.weak_stabilizing v then incr weak;
    if Checker.self_stabilizing v then incr self;
    if v.Checker.dead_ends = [] then incr stall_free
  done;
  {
    algorithm_c = e.label;
    class_c = Format.asprintf "%a" Statespace.pp_sched_class cls;
    processes = n;
    weak_survives = !weak;
    self_survives = !self;
    stall_free = !stall_free;
  }

let crash_resilience () =
  let rows =
    [
      crash_instance (Registry.find ~name:"token-ring" ~topology:"ring:5" ()) Statespace.Central;
      crash_instance (Registry.find ~name:"dijkstra" ~topology:"ring:4" ()) Statespace.Central;
      crash_instance (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Central;
      crash_instance (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Distributed;
      crash_instance (Registry.find ~name:"matching" ~topology:"chain:5" ()) Statespace.Distributed;
      crash_instance (Registry.find ~name:"leader-tree" ~topology:"chain:4" ()) Statespace.Distributed;
      crash_instance (Registry.find ~name:"mis" ~topology:"ring:5" ()) Statespace.Distributed;
      crash_instance (Registry.find ~name:"centers" ~topology:"chain:5" ()) Statespace.Distributed;
    ]
  in
  let table =
    Report.create
      ~title:
        "P3: crash resilience (Dolev-Herman) - single-crash locations under which \
         stabilization survives"
      ~columns:
        [ "algorithm"; "class"; "weak survives"; "self survives"; "stall-free" ]
  in
  List.iter
    (fun r ->
      let frac x = Printf.sprintf "%d/%d" x r.processes in
      Report.add_row table
        [
          r.algorithm_c;
          r.class_c;
          frac r.weak_survives;
          frac r.self_survives;
          frac r.stall_free;
        ])
    rows;
  (rows, table)

(* --- exact resilience radii, portfolio-wide --- *)

type radius_row = {
  algorithm_r : string;
  class_r : string;
  configs : int;
  adversarial_r : int;
  probabilistic_r : int;
  worst_case_1 : int option;
  expected_mean_1 : float option;
}

let radius_instance (Registry.Entry e) cls =
  let space = Statespace.build e.protocol in
  let n = Stabgraph.Graph.size e.protocol.Protocol.graph in
  let metrics = Resilience.analyze space cls e.spec ~ks:(List.init (n + 1) Fun.id) in
  let r = Resilience.radius_of metrics in
  let m1 = List.find (fun (m : Resilience.metric) -> m.Resilience.k = 1) metrics in
  {
    algorithm_r = e.label;
    class_r = Format.asprintf "%a" Statespace.pp_sched_class cls;
    configs = Statespace.count space;
    adversarial_r = r.Resilience.adversarial;
    probabilistic_r = r.Resilience.probabilistic;
    worst_case_1 = m1.Resilience.worst_case;
    expected_mean_1 = m1.Resilience.expected_mean;
  }

let resilience_radii () =
  let rows =
    [
      radius_instance (Registry.find ~name:"token-ring" ~topology:"ring:5" ()) Statespace.Central;
      radius_instance (Registry.find ~name:"dijkstra" ~topology:"ring:4" ()) Statespace.Central;
      radius_instance (Registry.find ~name:"two-bool" ~topology:"ring:3" ()) Statespace.Distributed;
      radius_instance (Registry.find ~name:"leader-tree" ~topology:"chain:4" ()) Statespace.Distributed;
      radius_instance (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Central;
      radius_instance (Registry.find ~name:"matching" ~topology:"chain:5" ()) Statespace.Distributed;
      radius_instance (Registry.find ~name:"centers" ~topology:"chain:5" ()) Statespace.Distributed;
      radius_instance (Registry.find ~name:"mis" ~topology:"ring:5" ()) Statespace.Central;
    ]
  in
  let table =
    Report.create
      ~title:
        "P4: exact resilience radii (largest k with guaranteed / probability-1 \
         recovery; k up to n)"
      ~columns:
        [
          "algorithm";
          "class";
          "|C|";
          "adversarial radius";
          "probabilistic radius";
          "worst case (k=1)";
          "E[recovery] (k=1)";
        ]
  in
  List.iter
    (fun r ->
      Report.add_row table
        [
          r.algorithm_r;
          r.class_r;
          Report.cell_int r.configs;
          Report.cell_int r.adversarial_r;
          Report.cell_int r.probabilistic_r;
          (match r.worst_case_1 with Some w -> Report.cell_int w | None -> "unbounded");
          (match r.expected_mean_1 with Some m -> Report.cell_float m | None -> "-");
        ])
    rows;
  (rows, table)
