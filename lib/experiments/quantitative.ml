open Stabcore

type datum = {
  algorithm : string;
  scheduler : string;
  n : int;
  mean_steps : float;
  worst_steps : float option;
  method_ : string;
}

let datum_row d =
  [
    d.algorithm;
    d.scheduler;
    Report.cell_int d.n;
    Report.cell_float d.mean_steps;
    (match d.worst_steps with Some w -> Report.cell_float w | None -> "-");
    d.method_;
  ]

let table ~title data =
  let t =
    Report.create ~title
      ~columns:[ "algorithm"; "scheduler"; "n"; "mean steps"; "worst"; "method" ]
  in
  List.iter (fun d -> Report.add_row t (datum_row d)) data;
  t

(* Mirror of Markov.expected_hitting_times' size-based default, made
   explicit here so the reported method label states which backend
   actually solved the system. *)
let resolve_method method_ legitimate =
  match method_ with
  | Some m -> m
  | None ->
    let transient =
      Array.fold_left (fun acc l -> if l then acc else acc + 1) 0 legitimate
    in
    if transient <= 1200 then Markov.Exact
    else
      Markov.Sparse
        { kind = Markov.Gauss_seidel; tolerance = 1e-10; max_sweeps = 1_000_000 }

let backend_label = function
  | Markov.Exact -> "exact"
  | Markov.Sparse { kind = Markov.Gauss_seidel; _ } -> "gs"
  | Markov.Sparse { kind = Markov.Jacobi; _ } -> "jacobi"

(* Exact mean/worst expected hitting time of a protocol under a
   randomized daemon, averaging over all initial configurations. With
   [quotient:true] the chain is the orbit-lumped one; its orbit sizes
   weight the mean so the numbers agree exactly with the full chain. *)
let exact_datum ?method_ ?(quotient = false) ?relabel ~algorithm ~scheduler ~n p spec
    randomization =
  let space = Statespace.build p in
  let space = if quotient then Statespace.quotient ?relabel space else space in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space randomization in
  let method_ = resolve_method method_ legitimate in
  let stats, outcome =
    Markov.hitting_stats_checked ~method_
      ?weights:(Statespace.orbit_sizes space)
      chain ~legitimate
  in
  let backend = backend_label method_ in
  let backend = if Statespace.is_quotient space then backend ^ "/orbit" else backend in
  (* A sweep-budget exhaustion is a property of the row, not a reason
     to lose the whole table: the datum keeps the partial numbers and
     the label says they did not converge. *)
  let backend =
    match outcome with
    | Some (Markov.Max_sweeps stats) ->
      Stabobs.Obs.warnf
        "%s/%s n=%d: %s solver hit its sweep budget (%d sweeps, %d blocks); \
         reporting the partial iterate"
        algorithm scheduler n backend stats.Markov.sweeps stats.Markov.blocks;
      backend ^ "!nonconverged"
    | Some (Markov.Converged _) | None -> backend
  in
  {
    algorithm;
    scheduler;
    n;
    mean_steps = stats.Markov.mean;
    worst_steps = Some stats.Markov.max;
    method_ = backend;
  }

(* Sampled via the parallel estimator: the per-run pre-split keeps the
   sample identical to the serial one, so the recorded tables are
   unchanged while multi-core machines shard the runs. *)
let mc_datum ~algorithm ~scheduler ~n ~runs ~max_steps rng p spec sched =
  let result = Montecarlo.estimate_parallel ~runs ~max_steps rng p sched spec in
  match result.Montecarlo.summary with
  | Some s ->
    {
      algorithm;
      scheduler;
      n;
      mean_steps = s.Stabstats.Stats.mean;
      worst_steps = None;
      method_ = Printf.sprintf "mc(%d)" runs;
    }
  | None ->
    {
      algorithm;
      scheduler;
      n;
      mean_steps = Float.nan;
      worst_steps = None;
      method_ = Printf.sprintf "mc(%d): no convergence" runs;
    }

let e1_token_sweep ?method_ ?(seed = 42) ?(quick = true) () =
  let rng = Stabrng.Rng.create seed in
  (* The rotation quotient carries the exact sweep to N = 11 (2048
     configurations at N = 11, ~5.9k orbits at N = 10); the
     differential suite pins its verdicts and hitting stats to the full
     space on every size where both fit. *)
  let exact_sizes = if quick then [ 3; 4; 5 ] else [ 3; 4; 5; 6; 7; 8; 9; 10; 11 ] in
  let mc_sizes = if quick then [ 8; 12 ] else [ 8; 12; 16; 24; 32 ] in
  let runs = if quick then 300 else 2000 in
  let raw =
    List.concat_map
      (fun n ->
        let p = Stabalgo.Token_ring.make ~n in
        let spec = Stabalgo.Token_ring.spec ~n in
        [
          exact_datum ?method_ ~quotient:true ~algorithm:"algorithm-1"
            ~scheduler:"central-random" ~n p spec Markov.Central_uniform;
          exact_datum ?method_ ~quotient:true ~algorithm:"algorithm-1"
            ~scheduler:"distributed-random" ~n p spec Markov.Distributed_uniform;
        ])
      exact_sizes
  in
  (* Dijkstra's 3-state token circulation carries the exact curve into
     genuinely sparse territory: at N = 13 the full space has 3^13 =
     1594323 configurations, far past the dense solver's cutoff. The
     protocol is self-stabilizing under the central daemon, so the
     transient graph is acyclic and the BSCC-blocked backend finishes
     in one back-substitution pass; expansion and CSR construction go
     through the work-stealing pool. *)
  let dijkstra3 =
    List.map
      (fun n ->
        let p = Stabalgo.Dijkstra_three.make ~n in
        let spec = Stabalgo.Dijkstra_three.spec ~n in
        exact_datum ?method_ ~algorithm:"dijkstra-3state" ~scheduler:"central-random" ~n
          p spec Markov.Central_uniform)
      (if quick then [ 4; 5 ] else [ 6; 8; 10; 12; 13 ])
  in
  let raw_mc =
    List.map
      (fun n ->
        let p = Stabalgo.Token_ring.make ~n in
        let spec = Stabalgo.Token_ring.spec ~n in
        mc_datum ~algorithm:"algorithm-1" ~scheduler:"central-random" ~n ~runs
          ~max_steps:2_000_000 (Stabrng.Rng.split rng) p spec
          (Scheduler.central_random ()))
      mc_sizes
  in
  let transformed =
    List.map
      (fun n ->
        let p = Transformer.randomize (Stabalgo.Token_ring.make ~n) in
        let spec = Transformer.lift_spec (Stabalgo.Token_ring.spec ~n) in
        exact_datum ?method_ ~algorithm:"trans(algorithm-1)" ~scheduler:"central-random"
          ~n p spec Markov.Central_uniform)
      (if quick then [ 3; 4 ] else [ 3; 4; 5 ])
  in
  let herman =
    List.map
      (fun n ->
        let p = Stabalgo.Herman.make ~n in
        let spec = Stabalgo.Herman.spec ~n in
        exact_datum ?method_ ~algorithm:"herman" ~scheduler:"synchronous" ~n p spec
          Markov.Sync)
      (if quick then [ 3; 5; 7 ] else [ 3; 5; 7; 9; 11 ])
  in
  let ij =
    List.map
      (fun n ->
        let chain = Stabalgo.Israeli_jalfon.chain ~n ~central:true in
        let legitimate = Stabalgo.Israeli_jalfon.legitimate ~n in
        legitimate.(0) <- true (* unreachable empty mask *);
        let resolved = resolve_method method_ legitimate in
        let times, ij_outcome =
          Markov.hitting_times_checked ~method_:resolved chain ~legitimate
        in
        (* Average over non-empty masks only. *)
        let total = ref 0.0 and count = ref 0 in
        Array.iteri
          (fun mask t ->
            if mask <> 0 then begin
              total := !total +. t;
              incr count
            end)
          times;
        {
          algorithm = "israeli-jalfon";
          scheduler = "central-random";
          n;
          mean_steps = !total /. float_of_int !count;
          worst_steps = Some (Array.fold_left Float.max 0.0 times);
          method_ =
            (match ij_outcome with
            | Some (Markov.Max_sweeps _) -> backend_label resolved ^ "!nonconverged"
            | Some (Markov.Converged _) | None -> backend_label resolved);
        })
      (if quick then [ 4; 6; 8 ] else [ 4; 6; 8; 10; 12 ])
  in
  let data = raw @ dijkstra3 @ raw_mc @ transformed @ herman @ ij in
  (data, table ~title:"E1: expected stabilization time, token-circulation family" data)

let e2_leader_sweep ?method_ ?(seed = 43) ?(quick = true) () =
  let rng = Stabrng.Rng.create seed in
  (* The faster delta-based expansion carries the exhaustive tree sweep
     past 7 nodes (all 23 free trees on 8 nodes). Algorithm 2's
     validated symmetry group is trivial (local-index arithmetic in
     A2/A3), so these rows are full-space by construction. *)
  let exact_trees =
    List.concat_map
      (fun n -> List.map (fun g -> (n, g)) (Stabgraph.Graph.all_trees n))
      (if quick then [ 3; 4 ] else [ 3; 4; 5; 6; 7; 8 ])
  in
  let exact =
    List.map
      (fun (n, g) ->
        let p = Stabalgo.Leader_tree.make g in
        let spec = Stabalgo.Leader_tree.spec g in
        exact_datum ?method_ ~algorithm:"algorithm-2" ~scheduler:"central-random" ~n p spec
          Markov.Central_uniform)
      exact_trees
  in
  let mc_sizes = if quick then [ 8; 12 ] else [ 8; 12; 16; 24; 32 ] in
  let runs = if quick then 200 else 1000 in
  let mc =
    List.map
      (fun n ->
        let g = Stabgraph.Graph.random_tree rng n in
        let p = Stabalgo.Leader_tree.make g in
        let spec = Stabalgo.Leader_tree.spec g in
        mc_datum ~algorithm:"algorithm-2" ~scheduler:"central-random" ~n ~runs
          ~max_steps:1_000_000 (Stabrng.Rng.split rng) p spec
          (Scheduler.central_random ()))
      mc_sizes
  in
  let data = exact @ mc in
  (data, table ~title:"E2: expected stabilization time, Algorithm 2 on trees" data)

let e3_transformer_overhead ?method_ ?(quick = true) () =
  let sizes = if quick then [ 3; 4 ] else [ 3; 4; 5 ] in
  let biases = [ 0.25; 0.5; 0.75 ] in
  let data =
    List.concat_map
      (fun n ->
        let p = Stabalgo.Token_ring.make ~n in
        let spec = Stabalgo.Token_ring.spec ~n in
        let base =
          exact_datum ?method_ ~algorithm:"algorithm-1" ~scheduler:"central-random" ~n p spec
            Markov.Central_uniform
        in
        base
        :: List.map
             (fun bias ->
               let tp = Transformer.randomize ~coin_bias:bias p in
               let tspec = Transformer.lift_spec spec in
               let d =
                 exact_datum ?method_
                   ~algorithm:(Printf.sprintf "trans(algorithm-1,bias=%.2f)" bias)
                   ~scheduler:"central-random" ~n tp tspec Markov.Central_uniform
               in
               d)
             biases)
      sizes
  in
  (data, table ~title:"E3: transformer overhead (coin-bias ablation)" data)

let e4_scheduler_comparison ?method_ ?(quick = true) () =
  let n = if quick then 4 else 5 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let tp = Transformer.randomize p in
  let tspec = Transformer.lift_spec spec in
  let g = Stabgraph.Graph.chain 4 in
  let lp = Stabalgo.Leader_tree.make g in
  let lspec = Stabalgo.Leader_tree.spec g in
  let tlp = Transformer.randomize lp in
  let tlspec = Transformer.lift_spec lspec in
  let data =
    [
      exact_datum ?method_ ~algorithm:"algorithm-1" ~scheduler:"central-random" ~n p spec
        Markov.Central_uniform;
      exact_datum ?method_ ~algorithm:"algorithm-1" ~scheduler:"distributed-random" ~n p spec
        Markov.Distributed_uniform;
      exact_datum ?method_ ~algorithm:"trans(algorithm-1)" ~scheduler:"central-random" ~n tp tspec
        Markov.Central_uniform;
      exact_datum ?method_ ~algorithm:"trans(algorithm-1)" ~scheduler:"distributed-random" ~n tp
        tspec Markov.Distributed_uniform;
      exact_datum ?method_ ~algorithm:"trans(algorithm-1)" ~scheduler:"synchronous" ~n tp tspec
        Markov.Sync;
      exact_datum ?method_ ~algorithm:"algorithm-2 (chain-4)" ~scheduler:"central-random" ~n:4 lp
        lspec Markov.Central_uniform;
      exact_datum ?method_ ~algorithm:"algorithm-2 (chain-4)" ~scheduler:"distributed-random" ~n:4
        lp lspec Markov.Distributed_uniform;
      exact_datum ?method_ ~algorithm:"trans(algorithm-2)" ~scheduler:"synchronous" ~n:4 tlp tlspec
        Markov.Sync;
    ]
  in
  (data, table ~title:"E4: scheduler comparison (raw protocols diverge synchronously)" data)

let e5_convergence_radius ?(quick = true) () =
  let t =
    Report.create ~title:"E5: convergence radius (best-case distance to L; worst daemon)"
      ~columns:
        [ "algorithm"; "class"; "configs"; "radius histogram (dist:count)"; "worst-daemon steps" ]
  in
  let add (Registry.Entry e) cls =
    let space = Statespace.build e.protocol in
    let g = Checker.expand space cls in
    let legitimate = Statespace.legitimate_set space e.spec in
    let histogram = Checker.convergence_radius_histogram space g ~legitimate in
    let rendered =
      String.concat " "
        (List.map (fun (d, c) -> Printf.sprintf "%d:%d" d c) histogram)
    in
    let worst =
      match Checker.worst_case_steps space g ~legitimate with
      | Some values -> Report.cell_int (Array.fold_left max 0 values)
      | None -> "unbounded"
    in
    Report.add_row t
      [
        e.label;
        Format.asprintf "%a" Statespace.pp_sched_class cls;
        Report.cell_int (Statespace.count space);
        rendered;
        worst;
      ]
  in
  let n = if quick then "5" else "6" in
  add (Registry.find ~name:"token-ring" ~topology:("ring:" ^ n) ()) Statespace.Distributed;
  add (Registry.find ~name:"leader-tree" ~topology:"chain:4" ()) Statespace.Distributed;
  add (Registry.find ~name:"centers" ~topology:"chain:5" ()) Statespace.Distributed;
  add (Registry.find ~name:"dijkstra" ~topology:"ring:4" ()) Statespace.Central;
  add (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Central;
  add (Registry.find ~name:"coloring" ~topology:"ring:4" ()) Statespace.Distributed;
  add (Registry.find ~name:"matching" ~topology:"chain:4" ()) Statespace.Distributed;
  t

let e6_steps_vs_rounds ?(seed = 44) ?(quick = true) () =
  let rng = Stabrng.Rng.create seed in
  let t =
    Report.create ~title:"E6: steps vs asynchronous rounds (Monte-Carlo)"
      ~columns:[ "algorithm"; "scheduler"; "n"; "mean steps"; "mean rounds"; "steps/round" ]
  in
  let runs = if quick then 300 else 2000 in
  let add label n p spec sched sched_name =
    let result =
      Montecarlo.estimate ~runs ~max_steps:1_000_000 (Stabrng.Rng.split rng) p sched spec
    in
    match (result.Montecarlo.summary, result.Montecarlo.rounds_summary) with
    | Some s, Some r ->
      let ratio =
        if r.Stabstats.Stats.mean > 0.0 then s.Stabstats.Stats.mean /. r.Stabstats.Stats.mean
        else Float.nan
      in
      Report.add_row t
        [
          label;
          sched_name;
          Report.cell_int n;
          Report.cell_float s.Stabstats.Stats.mean;
          Report.cell_float r.Stabstats.Stats.mean;
          Report.cell_float ratio;
        ]
    | _ -> Report.add_row t [ label; sched_name; Report.cell_int n; "-"; "-"; "-" ]
  in
  let sizes = if quick then [ 6; 9 ] else [ 6; 9; 12; 18 ] in
  List.iter
    (fun n ->
      let p = Stabalgo.Token_ring.make ~n in
      let spec = Stabalgo.Token_ring.spec ~n in
      add "algorithm-1" n p spec (Scheduler.central_random ()) "central-random";
      add "algorithm-1" n p spec (Scheduler.distributed_random ()) "distributed-random")
    sizes;
  List.iter
    (fun n ->
      let g = Stabgraph.Graph.random_tree (Stabrng.Rng.split rng) n in
      let p = Stabalgo.Leader_tree.make g in
      let spec = Stabalgo.Leader_tree.spec g in
      add "algorithm-2" n p spec (Scheduler.central_random ()) "central-random";
      add "algorithm-2" n p spec (Scheduler.distributed_random ()) "distributed-random")
    sizes;
  t

let e7_convergence_curves ?(quick = true) () =
  let t =
    Report.create
      ~title:"E7: convergence curves and absorption probabilities"
      ~columns:[ "system"; "quantity"; "values" ]
  in
  (* (a) cumulative stabilized mass after k synchronous steps, uniform
     initial distribution. *)
  let curve label p spec checkpoints =
    let space = Statespace.build p in
    let legitimate = Statespace.legitimate_set space spec in
    let chain = Markov.of_space space Markov.Sync in
    let n = Markov.states chain in
    let uniform = Array.make n (1.0 /. float_of_int n) in
    let cells =
      List.map
        (fun k ->
          let dist = Markov.transient_distribution chain ~init:uniform ~steps:k in
          Printf.sprintf "k=%d:%.3f" k (Markov.mass_in dist legitimate))
        checkpoints
    in
    Report.add_row t [ label; "P(stabilized within k sync steps)"; String.concat " " cells ]
  in
  let n = if quick then 4 else 5 in
  curve
    (Printf.sprintf "trans(token-ring n=%d)" n)
    (Transformer.randomize (Stabalgo.Token_ring.make ~n))
    (Transformer.lift_spec (Stabalgo.Token_ring.spec ~n))
    [ 1; 2; 4; 8; 16; 32 ];
  curve "trans(two-bool)"
    (Transformer.randomize (Stabalgo.Two_bool.make ()))
    (Transformer.lift_spec Stabalgo.Two_bool.spec)
    [ 1; 2; 4; 8; 16; 32 ];
  (* (b) absorption probabilities of the raw two-bool under a central
     randomized daemon: which configurations are doomed. *)
  let p = Stabalgo.Two_bool.make () in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space Stabalgo.Two_bool.spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  let probs = Markov.absorption_probabilities chain ~legitimate in
  let cells =
    List.init (Statespace.count space) (fun c ->
        Format.asprintf "%a:%.2f"
          (Protocol.pp_config p)
          (Statespace.config space c) probs.(c))
  in
  Report.add_row t
    [ "two-bool (central-random)"; "P(reach L) per configuration"; String.concat " " cells ];
  t

let e9_sync_orbit_census ?(quick = true) () =
  let t =
    Report.create
      ~title:"E9: synchronous orbit census (limit-cycle length : #configs; 0 = terminal)"
      ~columns:[ "algorithm"; "configs"; "census" ]
  in
  let add (Registry.Entry e) =
    let space = Statespace.build e.protocol in
    let census = Checker.sync_orbit_census space in
    Report.add_row t
      [
        e.label;
        Report.cell_int (Statespace.count space);
        String.concat " "
          (List.map (fun (l, c) -> Printf.sprintf "%d:%d" l c) census);
      ]
  in
  let n = if quick then "5" else "6" in
  add (Registry.find ~name:"token-ring" ~topology:("ring:" ^ n) ());
  add (Registry.find ~name:"leader-tree" ~topology:"chain:4" ());
  add (Registry.find ~name:"leader-tree" ~topology:"star:5" ());
  add (Registry.find ~name:"two-bool" ~topology:"ring:3" ());
  add (Registry.find ~name:"coloring" ~topology:"ring:4" ());
  add (Registry.find ~name:"matching" ~topology:"chain:5" ());
  add (Registry.find ~name:"centers" ~topology:"chain:5" ());
  add (Registry.find ~name:"dijkstra" ~topology:"ring:4" ());
  t

let e10_fault_recovery ?(seed = 46) ?(quick = true) () =
  let rng = Stabrng.Rng.create seed in
  let t =
    Report.create
      ~title:"E10: recovery time after k injected faults (central randomized daemon)"
      ~columns:[ "algorithm"; "n"; "faults"; "mean steps"; "mean rounds"; "timeouts" ]
  in
  let runs = if quick then 300 else 2000 in
  let add label n p spec from faults =
    let result =
      Faults.recovery_profile ~runs ~max_steps:500_000 (Stabrng.Rng.split rng) p
        (Scheduler.central_random ()) spec ~from ~faults
    in
    let cell f = function
      | Some (s : Stabstats.Stats.summary) -> Report.cell_float (f s)
      | None -> "-"
    in
    Report.add_row t
      [
        label;
        Report.cell_int n;
        Report.cell_int faults;
        cell (fun s -> s.Stabstats.Stats.mean) result.Montecarlo.summary;
        cell (fun s -> s.Stabstats.Stats.mean) result.Montecarlo.rounds_summary;
        Report.cell_int result.Montecarlo.timeouts;
      ]
  in
  let n = if quick then 9 else 15 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let from = Stabalgo.Token_ring.legitimate_config ~n in
  List.iter (fun k -> add "algorithm-1" n p spec from k) [ 1; 2; 3; n ];
  let g = Stabgraph.Graph.chain (if quick then 7 else 11) in
  let lp = Stabalgo.Leader_tree.make g in
  let lspec = Stabalgo.Leader_tree.spec g in
  (* A legitimate orientation of the chain: everyone points toward the
     last node. *)
  let open Stabalgo.Leader_tree in
  let size = Stabgraph.Graph.size g in
  let oriented =
    Array.init size (fun i ->
        if i = size - 1 then Root
        else if i = 0 then Parent 0
        else Parent 1 (* neighbors of an interior chain node are [i-1; i+1] *))
  in
  assert (is_lc g oriented);
  List.iter (fun k -> add "algorithm-2" size lp lspec oriented k) [ 1; 2; 3; size ];
  t

let e11_availability ?(seed = 47) ?(quick = true) () =
  let rng = Stabrng.Rng.create seed in
  let t =
    Report.create
      ~title:
        "E11: availability under recurrent faults (token ring, central randomized \
         daemon)"
      ~columns:[ "plan"; "gap"; "k"; "mean availability"; "ci95"; "min" ]
  in
  let n = if quick then 7 else 9 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let init = Stabalgo.Token_ring.legitimate_config ~n in
  let space = Statespace.build p in
  let g = Checker.expand space Statespace.Central in
  let runs = if quick then 200 else 1000 in
  let horizon = 2_000 in
  let sched = Scheduler.central_random () in
  let add plan ~gap ~k =
    let s =
      Faults.availability_profile ~runs ~horizon (Stabrng.Rng.split rng) p sched spec
        ~plan ~init
    in
    Report.add_row t
      [
        Faults.plan_name plan;
        Report.cell_int gap;
        Report.cell_int k;
        Report.cell_float ~decimals:4 s.Stabstats.Stats.mean;
        Printf.sprintf "[%.4f, %.4f]" s.Stabstats.Stats.ci95_low
          s.Stabstats.Stats.ci95_high;
        Report.cell_float ~decimals:4 s.Stabstats.Stats.min;
      ]
  in
  (* The availability curve: the same fault budget hurts more as the
     gap shrinks, and the graph-guided adversary wastes none of its
     injections — the gap between its row and the periodic row at equal
     gap is the price of worst-case (vs random) corruption. *)
  List.iter
    (fun gap ->
      add (Faults.periodic p ~gap ~faults:1) ~gap ~k:1;
      add (Faults.adversarial space g spec ~gap ~faults:1) ~gap ~k:1)
    [ 10; 25; 50; 100 ];
  add (Faults.bernoulli p ~rate:0.02 ~faults:1) ~gap:50 ~k:1;
  t
