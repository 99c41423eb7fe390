(* Benchmark harness: one timed entry per reproduced figure/table.

   Part 1 measures the computation that regenerates each artifact —
   figure replays, theorem checks, quantitative sweeps — as a full
   distribution, not a point: each entry is sampled in calibrated
   batches until a time quota is met, and the per-run nanosecond
   samples yield mean/stddev/ci95/p50/p99 plus per-run allocation
   (minor words, major collections) read off the GC between batches.
   The record is written as bench schema v3 (`--json`, default
   `BENCH_checker.json`), one line is appended to `bench/history.jsonl`
   so the perf trajectory stays machine-readable, and a markdown
   report lands in `docs/bench-report.md` (`--report`).

   `--compare BASELINE.json --gate-pct P` turns the run into a perf
   gate: the per-entry delta table is printed (and appended to the
   markdown report), and the process exits non-zero when any entry's
   mean slowed by at least P% beyond the pooled ci95 noise band of the
   two records (`Stabexp.Benchcmp`). `--quick` shrinks the quotas for
   CI; `--micro-only` skips parts 2-4.

   Parts 2-4 print the artifacts themselves: figures, the per-theorem
   verdict tables and the E1-E4 stabilization-time tables recorded in
   EXPERIMENTS.md. The run aborts with a non-zero exit code if any
   theorem check fails, so `dune exec bench/main.exe` doubles as a
   repro gate. *)

module Json = Stabobs.Json
module Obs = Stabobs.Obs
module Dist = Stabobs.Dist
module Stats = Stabstats.Stats

(* --- command line --- *)

let json_path = ref "BENCH_checker.json"
let history_path = ref "bench/history.jsonl"
let report_path = ref "docs/bench-report.md"
let compare_path = ref ""
let gate_pct = ref 20.0
let quick = ref false
let micro_only = ref false

let speclist =
  [
    ("--json", Arg.Set_string json_path, "FILE bench record destination (schema 3)");
    ( "--history",
      Arg.Set_string history_path,
      "FILE history log to append to (\"\" disables)" );
    ( "--report",
      Arg.Set_string report_path,
      "FILE markdown report destination (\"\" disables)" );
    ( "--compare",
      Arg.Set_string compare_path,
      "FILE baseline bench record to gate against" );
    ( "--gate-pct",
      Arg.Float
        (fun p ->
          (* NaN or infinity would never gate. *)
          if Float.is_finite p && p >= 0.0 then gate_pct := p
          else
            raise
              (Arg.Bad
                 (Printf.sprintf "--gate-pct: expected a non-negative finite number, got %g" p))),
      "P significant regressions under P percent do not gate (default 20)" );
    ("--quick", Arg.Set quick, " reduced sampling quotas (CI mode)");
    ("--micro-only", Arg.Set micro_only, " skip figure/theorem/experiment replay");
  ]

let usage = "bench/main.exe [--json FILE] [--compare BASELINE --gate-pct P] ..."

(* The resilience campaign of ISSUE 2: exact per-k recovery metrics on
   the packed graph (token ring, N = 7, k = 1..3) plus a 500-run
   availability estimate under periodic injection. *)
let faults_campaign () =
  let n = 7 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Stabcore.Statespace.build p in
  let metrics =
    Stabcore.Resilience.analyze space Stabcore.Statespace.Central spec ~ks:[ 0; 1; 2; 3 ]
  in
  let plan = Stabcore.Faults.periodic p ~gap:50 ~faults:1 in
  let availability =
    Stabcore.Faults.availability_profile ~runs:500 ~horizon:2000
      (Stabrng.Rng.create 42) p
      Stabcore.Scheduler.central_random spec ~plan
      ~init:(Stabalgo.Token_ring.legitimate_config ~n)
  in
  (metrics, availability)

let print_faults_campaign () =
  let metrics, availability = faults_campaign () in
  let t =
    Stabexp.Report.create
      ~title:"faults-campaign: token ring N=7, exact recovery radius + availability"
      ~columns:
        [ "k"; "faulty"; "worst case"; "prob-1"; "E[recovery] mean"; "E[recovery] max" ]
  in
  List.iter
    (fun (m : Stabcore.Resilience.metric) ->
      Stabexp.Report.add_row t
        [
          Stabexp.Report.cell_int m.Stabcore.Resilience.k;
          Stabexp.Report.cell_int m.Stabcore.Resilience.faulty_configs;
          (match m.Stabcore.Resilience.worst_case with
          | Some w -> Stabexp.Report.cell_int w
          | None -> "unbounded");
          Stabexp.Report.cell_bool m.Stabcore.Resilience.prob_one;
          (match m.Stabcore.Resilience.expected_mean with
          | Some v -> Stabexp.Report.cell_float v
          | None -> "-");
          (match m.Stabcore.Resilience.expected_max with
          | Some v -> Stabexp.Report.cell_float v
          | None -> "-");
        ])
    metrics;
  Stabexp.Report.print t;
  let r = Stabcore.Resilience.radius_of metrics in
  Printf.printf
    "   radius (k <= %d): adversarial %d, probabilistic %d\n\
    \   availability under periodic(gap=50,k=1), 500 runs: mean %.4f [%.4f, %.4f]\n\n"
    r.Stabcore.Resilience.max_k r.Stabcore.Resilience.adversarial
    r.Stabcore.Resilience.probabilistic availability.Stabstats.Stats.mean
    availability.Stabstats.Stats.ci95_low availability.Stabstats.Stats.ci95_high

(* Symmetry-quotient vs full-space analysis of the same instance. The
   quotient entries pay for group validation and canonicalization
   inside the timed region and still come out ahead whenever the
   validated group is nontrivial (token ring: the 8 rotations).
   leader-tree documents the sound fallback: Algorithm 2's local-index
   arithmetic leaves only the identity, so its quotient entry measures
   the full space plus the (cheap) rejection sweep — see
   docs/symmetry.md. *)
let analyze_token_ring ~quotient () =
  let n = 8 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Stabcore.Statespace.build p in
  let space = if quotient then Stabcore.Statespace.quotient space else space in
  Stabcore.Checker.analyze space Stabcore.Statespace.Distributed
    (Stabalgo.Token_ring.spec ~n)

let analyze_leader_tree ~quotient () =
  let g = Stabgraph.Graph.star 7 in
  let p = Stabalgo.Leader_tree.make g in
  let space = Stabcore.Statespace.build p in
  let space =
    if quotient then
      Stabcore.Statespace.quotient ~relabel:(Stabalgo.Leader_tree.relabel g) space
    else space
  in
  Stabcore.Checker.analyze space Stabcore.Statespace.Distributed
    (Stabalgo.Leader_tree.spec g)

(* The pooled expansion entries time the same full-space
   analysis at pinned pool widths, so a committed baseline records the
   machine's actual 1-domain vs 4-domain expansion scaling. A fresh
   [Statespace.build] per run gives the space a fresh uid, which
   bypasses the checker's (space, scheduler) expansion cache — every
   run pays for row expansion, the thing being measured. On a 1-core
   container the 4d entry measures pool overhead, not speedup; read
   the two together. *)
let expand_ws ~width () =
  Stabcore.Pool.set_width width;
  let n = 8 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Stabcore.Statespace.build p in
  ignore
    (Stabcore.Checker.analyze space Stabcore.Statespace.Distributed
       (Stabalgo.Token_ring.spec ~n))

(* The sparse-solver entries time one BSCC-blocked solve of the
   orbit-lumped token-ring chain at N = 10 (5934 states, 85 blocks) —
   the weak-stabilizing shape where the iterative sweeps actually
   iterate. The chain is built once, outside the timed region, by the
   harness's calibration call forcing the lazy cell. *)
let sparse_fixture =
  lazy
    (let n = 10 in
     let p = Stabalgo.Token_ring.make ~n in
     let spec = Stabalgo.Token_ring.spec ~n in
     let space = Stabcore.Statespace.quotient (Stabcore.Statespace.build p) in
     let legitimate = Stabcore.Statespace.legitimate_set space spec in
     let chain = Stabcore.Markov.of_space space Stabcore.Markov.Distributed_uniform in
     (chain, legitimate))

let markov_sparse kind () =
  let chain, legitimate = Lazy.force sparse_fixture in
  match Stabcore.Markov.sparse_hitting_times ~kind chain ~legitimate with
  | _, Stabcore.Markov.Converged _ -> ()
  | _, Stabcore.Markov.Max_sweeps _ -> failwith "bench: sparse solve did not converge"

(* Campaign resume planning, pure CPU: hash a 24-cell matrix, render
   half of it as checkpoint JSONL, parse the text back (the tolerant
   line-by-line path a resume takes), index it and decide which cells
   to skip. Guards the cost a `stabsim campaign` rerun pays before any
   analysis starts. *)
let campaign_fixture =
  lazy
    (let open Stabcampaign in
     let cell analysis topology sched =
       {
         Campaign.protocol = "token-ring";
         topology;
         transformed = false;
         sched;
         analysis;
         faults = Campaign.No_faults;
         runs = 100;
         max_steps = 100_000;
         max_configs = 1_000_000;
       }
     in
     let cells =
       List.concat_map
         (fun analysis ->
           List.concat_map
             (fun sched ->
               List.map
                 (fun topology -> cell analysis topology sched)
                 [ "ring:4"; "ring:5"; "ring:6"; "ring:7" ])
             [ Stabcore.Statespace.Central; Stabcore.Statespace.Distributed ])
         [ Campaign.Check; Campaign.Markov; Campaign.Montecarlo ]
     in
     let campaign =
       {
         Campaign.name = "bench";
         seed = 7;
         timeout_ms = None;
         retries = 2;
         backoff_ms = 100;
         cells;
       }
     in
     let finished =
       List.filteri (fun i _ -> i mod 2 = 0) cells
       |> List.map (fun c ->
              {
                Checkpoint.hash = Campaign.cell_hash c;
                label = Campaign.cell_label c;
                status = Checkpoint.Done;
                mode = "exact";
                retries = 0;
                payload = Stabobs.Json.Obj [ ("mean", Stabobs.Json.Float 1.5) ];
                error = None;
              })
     in
     let text =
       String.concat "\n"
         (List.map
            (fun r -> Stabobs.Json.to_string (Checkpoint.record_to_json r))
            finished)
     in
     (campaign, text))

let campaign_resume () =
  let open Stabcampaign in
  let campaign, text = Lazy.force campaign_fixture in
  let index = Checkpoint.index (Checkpoint.parse_string text) in
  let skip =
    List.filter
      (fun c -> Hashtbl.mem index (Campaign.cell_hash c))
      campaign.Campaign.cells
  in
  if List.length skip <> 12 then failwith "bench: campaign resume plan wrong"

(* The dark-telemetry gate: with no sink installed, a span is one
   atomic load and a branch, a counter add is dropped before touching
   domain-local state, and a dist record is dropped before its Welford
   update. Timings here must stay within noise of an empty loop — a
   regression means instrumentation started taxing the uninstrumented
   hot path. *)
let dark_dist = Dist.make "bench.dark"
let dark_gauge = Stabobs.Registry.Gauge.make "bench.dark-gauge"

let ignore_unit f () = ignore (f ())

let tests : (string * (unit -> unit)) list =
  [
    ("full-token-ring", ignore_unit (analyze_token_ring ~quotient:false));
    ("quotient-token-ring", ignore_unit (analyze_token_ring ~quotient:true));
    ("full-leader-tree", ignore_unit (analyze_leader_tree ~quotient:false));
    ("quotient-leader-tree", ignore_unit (analyze_leader_tree ~quotient:true));
    ("fig1-token-trace", ignore_unit (fun () -> Stabexp.Figures.fig1 ()));
    ("fig2-leader-convergence", ignore_unit Stabexp.Figures.fig2);
    ("fig3-sync-divergence", ignore_unit Stabexp.Figures.fig3);
    ("thm1-sync-equivalence", ignore_unit Stabexp.Theorems.theorem1);
    ( "thm2-weak-not-self",
      ignore_unit (fun () -> Stabexp.Theorems.theorem2 ~max_n:5 ~quotient:true ()) );
    ("thm3-impossibility", ignore_unit Stabexp.Theorems.theorem3);
    ( "thm4-leader-weak",
      ignore_unit (fun () -> Stabexp.Theorems.theorem4 ~max_n:5 ~quotient:true ()) );
    ("thm5-gouda-prob", ignore_unit Stabexp.Theorems.theorem5);
    ("thm6-gouda-vs-strong", ignore_unit Stabexp.Theorems.theorem6);
    ("thm7-markov-equivalence", ignore_unit Stabexp.Theorems.theorem7);
    ("thm8-transformer", ignore_unit Stabexp.Theorems.theorems8_9);
    ( "e1-token-sweep",
      ignore_unit (fun () -> Stabexp.Quantitative.e1_token_sweep ~quick:true ()) );
    ( "e2-leader-sweep",
      ignore_unit (fun () -> Stabexp.Quantitative.e2_leader_sweep ~quick:true ()) );
    ( "e3-transformer-overhead",
      ignore_unit (fun () -> Stabexp.Quantitative.e3_transformer_overhead ~quick:true ()) );
    ( "e4-scheduler-comparison",
      ignore_unit (fun () -> Stabexp.Quantitative.e4_scheduler_comparison ~quick:true ()) );
    ( "e5-convergence-radius",
      ignore_unit (fun () -> Stabexp.Quantitative.e5_convergence_radius ~quick:true ()) );
    ( "e7-convergence-curves",
      ignore_unit (fun () -> Stabexp.Quantitative.e7_convergence_curves ~quick:true ()) );
    ("p1-portfolio", ignore_unit Stabexp.Portfolio.classify);
    ("p2-taxonomy", ignore_unit Stabexp.Portfolio.taxonomy);
    ( "e9-sync-orbit-census",
      ignore_unit (fun () -> Stabexp.Quantitative.e9_sync_orbit_census ~quick:true ()) );
    ( "e8-dijkstra-threshold",
      ignore_unit (fun () -> Stabexp.Portfolio.dijkstra_k_threshold ~max_n:4 ()) );
    ("faults-campaign", ignore_unit faults_campaign);
    ("campaign-resume", campaign_resume);
    ("markov-sparse-gs", markov_sparse Stabcore.Markov.Gauss_seidel);
    ("markov-sparse-jacobi", markov_sparse Stabcore.Markov.Jacobi);
    ("expand-ws-1d", expand_ws ~width:1);
    ("expand-ws-4d", expand_ws ~width:4);
    ("obs-span-disabled", fun () -> Obs.span "bench.noop" ignore);
    ("obs-counter-disabled", fun () -> Obs.Counter.add Obs.configs_expanded 1);
    ("obs-dist-disabled", fun () -> Dist.record dark_dist 1.0);
    ("obs-gauge-disabled", fun () -> Stabobs.Registry.Gauge.set dark_gauge 1);
    ("obs-flight-disabled", fun () -> Stabobs.Flight.note "bench.noop");
  ]

(* --- the sampling harness --- *)

type measured = {
  summary : Stats.summary;  (* over ns-per-run samples *)
  p50 : float;
  p99 : float;
  total_runs : int;
  minor_words_per_run : float;
  major_per_run : float;
}

(* Each sample is one timed batch; the batch size is calibrated off the
   warm-up run so a sample covers ~5 ms of work, which keeps clock
   quantization out of the nanosecond-scale entries without costing the
   slow entries extra runs. Sampling stops once the quota has elapsed
   and at least [min_samples] samples exist. *)
let target_batch_ns = 5_000_000

let measure ~quota_ns ~min_samples f =
  let t0 = Obs.now_ns () in
  f ();
  let once = max 1 (Obs.now_ns () - t0) in
  let batch = max 1 (target_batch_ns / once) in
  let samples = ref [] in
  let nsamples = ref 0 in
  let total_runs = ref 0 in
  (* Gc.minor_words reads the allocation pointer (exact in native code,
     unlike quick_stat's minor_words, which lags until the next minor
     collection). *)
  let w0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let started = Obs.now_ns () in
  let continue () =
    !nsamples < min_samples || Obs.now_ns () - started < quota_ns
  in
  while continue () do
    let s0 = Obs.now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    let dur = Obs.now_ns () - s0 in
    samples := (float_of_int dur /. float_of_int batch) :: !samples;
    incr nsamples;
    total_runs := !total_runs + batch
  done;
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let runs = float_of_int !total_runs in
  let xs = Array.of_list !samples in
  {
    summary = Stats.summarize xs;
    p50 = Stats.quantile xs 0.5;
    p99 = Stats.quantile xs 0.99;
    total_runs = !total_runs;
    minor_words_per_run = (w1 -. w0) /. runs;
    major_per_run =
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. runs;
  }

let run_benchmarks () =
  let quota_ns = if !quick then 150_000_000 else 600_000_000 in
  let min_samples = if !quick then 5 else 8 in
  List.map
    (fun (name, f) -> ("repro/" ^ name, measure ~quota_ns ~min_samples f))
    tests
  |> List.sort compare

(* --- provenance --- *)

(* Both git probes degrade to the "unknown" / not-dirty fallback when
   the bench runs outside a repository (a release tarball, a bare
   container): provenance is best effort, the record is not. *)
let command_line cmd =
  match Unix.open_process_in cmd with
  | exception _ -> None
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
    | exception _ -> None)

let git_commit () =
  Option.value ~default:"unknown"
    (command_line "git rev-parse --short HEAD 2>/dev/null")

let git_dirty () =
  (* porcelain prints one line per changed path; any output means the
     working tree differs from the stamped commit. *)
  match command_line "git status --porcelain 2>/dev/null" with
  | Some line -> String.length line > 0
  | None -> false

let iso_timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* --- schema v3 emission --- *)

(* One instrumented pass over the reference pipeline (token ring,
   N = 7: exhaustive verdicts, exact hitting times, 200 sampled runs)
   recorded through the telemetry sinks with GC sampling on — the
   per-phase time/allocation breakdown and the well-known sample
   distributions that ride along with the timing entries. *)
let capture_profile () =
  let profile = Obs.Profile.create () in
  Obs.install (Obs.Profile.sink profile);
  Obs.set_gc_sampling true;
  Obs.Counter.reset_all ();
  Dist.reset_all ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_gc_sampling false;
      Obs.clear ())
    (fun () ->
      let n = 7 in
      let p = Stabalgo.Token_ring.make ~n in
      let spec = Stabalgo.Token_ring.spec ~n in
      let space = Stabcore.Statespace.build p in
      ignore (Stabcore.Checker.analyze space Stabcore.Statespace.Distributed spec);
      let legitimate = Stabcore.Statespace.legitimate_set space spec in
      let chain = Stabcore.Markov.of_space space Stabcore.Markov.Distributed_uniform in
      ignore (Stabcore.Markov.expected_hitting_times chain ~legitimate);
      (* The sparse backend on the same chain, so the recorded profile
         carries its block spans, sweep counter, and residual
         distribution alongside the dense solve. *)
      ignore (Stabcore.Markov.sparse_hitting_times chain ~legitimate);
      ignore
        (Stabcore.Montecarlo.estimate ~runs:200 ~max_steps:1_000_000
           (Stabrng.Rng.create 42) p
           Stabcore.Scheduler.distributed_random spec));
  let phases =
    List.map
      (fun (r : Obs.Profile.row) ->
        ( r.Obs.Profile.name,
          Json.Obj
            [
              ("count", Json.Int r.Obs.Profile.count);
              ("total_ns", Json.Int r.Obs.Profile.total_ns);
              ("max_ns", Json.Int r.Obs.Profile.max_ns);
              ("minor_words", Json.Int r.Obs.Profile.minor_words);
              ("major_collections", Json.Int r.Obs.Profile.major_collections);
            ] ))
      (Obs.Profile.rows profile)
  in
  let counters =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
      (Obs.Counter.snapshot ())
  in
  let dists =
    List.map
      (fun (name, (s : Dist.summary)) ->
        ( name,
          Json.Obj
            [
              ("count", Json.Int s.Dist.count);
              ("mean", Json.Float s.Dist.mean);
              ("stddev", Json.Float s.Dist.stddev);
              ("min", Json.Float s.Dist.min);
              ("max", Json.Float s.Dist.max);
              ("p50", Json.Float s.Dist.p50);
              ("p95", Json.Float s.Dist.p95);
              ("p99", Json.Float s.Dist.p99);
            ] ))
      (Dist.snapshot ())
  in
  Json.Obj
    [
      ("phases", Json.Obj phases);
      ("counters", Json.Obj counters);
      ("dists", Json.Obj dists);
    ]

let artifact_json (m : measured) =
  Json.Obj
    [
      ( "ns",
        Json.Obj
          [
            ("mean", Json.Float m.summary.Stats.mean);
            ("stddev", Json.Float m.summary.Stats.stddev);
            ("ci95", Json.Float (Stats.ci95_halfwidth m.summary));
            ("p50", Json.Float m.p50);
            ("p99", Json.Float m.p99);
            ("samples", Json.Int m.summary.Stats.count);
            ("runs", Json.Int m.total_runs);
          ] );
      ( "mem",
        Json.Obj
          [
            ("minor_words_per_run", Json.Float m.minor_words_per_run);
            ("major_per_run", Json.Float m.major_per_run);
          ] );
    ]

let build_doc measured =
  let meta =
    Json.Obj
      [
        ("commit", Json.String (git_commit ()));
        ("dirty", Json.Bool (git_dirty ()));
        ("timestamp", Json.String (iso_timestamp ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("domains", Json.Int (Stabcore.Pool.width ()));
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ("quick", Json.Bool !quick);
      ]
  in
  let artifacts = List.map (fun (name, m) -> (name, artifact_json m)) measured in
  Json.Obj
    [
      ("schema", Json.Int 3);
      ("meta", meta);
      ("artifacts", Json.Obj artifacts);
      ("profile", capture_profile ());
    ]

let write_doc doc =
  let oc = open_out !json_path in
  output_string oc (Json.to_string ~minify:false doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote per-artifact timing distributions to %s)\n%!" !json_path;
  (* A baseline stamped from a dirty tree cannot be reproduced from its
     own meta.commit — don't let one slip into the repository quietly.
     Read the stamped meta rather than re-running git: the record just
     written is itself tracked, so a fresh porcelain check would always
     see a dirty tree and cry wolf. *)
  let stamped_dirty =
    match Option.bind (Json.member "meta" doc) (Json.member "dirty") with
    | Some (Json.Bool b) -> b
    | _ -> false
  in
  if stamped_dirty then
    Printf.eprintf
      "bench: WARNING: working tree is dirty — %s records meta.dirty=true and \
       must NOT be committed as a baseline; rerun from a clean checkout.\n\
       %!"
      !json_path

(* The trajectory log: one compact line per bench run, so regressions
   can be traced to a commit without diffing committed records. *)
let append_history doc =
  if !history_path <> "" then begin
    let line =
      Json.Obj
        (List.filter_map
           (fun key -> Option.map (fun v -> (key, v)) (Json.member key doc))
           [ "schema"; "meta"; "artifacts" ])
    in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 !history_path
    in
    output_string oc (Json.to_string line);
    output_char oc '\n';
    close_out oc;
    Printf.printf "(appended this run to %s)\n\n%!" !history_path
  end

(* --- rendering --- *)

let pretty_float_ns ns = Obs.pretty_ns (int_of_float ns)

let timing_table measured =
  let table =
    Stabexp.Report.create ~title:"benchmark: time to regenerate each artifact"
      ~columns:[ "artifact"; "mean"; "ci95"; "p50"; "p99"; "minor w/run" ]
  in
  List.iter
    (fun (name, m) ->
      Stabexp.Report.add_row table
        [
          name;
          pretty_float_ns m.summary.Stats.mean;
          Printf.sprintf "±%s" (pretty_float_ns (Stats.ci95_halfwidth m.summary));
          pretty_float_ns m.p50;
          pretty_float_ns m.p99;
          Printf.sprintf "%.0f" m.minor_words_per_run;
        ])
    measured;
  table

let write_report doc measured compare_section =
  if !report_path <> "" then begin
    (* Provenance from the stamped meta: by the time the report is
       written the record file has already dirtied the tree. *)
    let meta_string key fallback =
      match Option.bind (Json.member "meta" doc) (Json.member key) with
      | Some (Json.String s) -> s
      | _ -> fallback
    in
    let meta_dirty =
      match Option.bind (Json.member "meta" doc) (Json.member "dirty") with
      | Some (Json.Bool b) -> b
      | _ -> false
    in
    let oc = open_out !report_path in
    Printf.fprintf oc
      "# Bench report\n\n\
       Generated by `bench/main.exe` at %s, commit `%s`%s (quick=%b). Each entry \
       is a distribution over calibrated-batch samples; `ci95` is the half-width \
       of the mean's 95%% confidence interval. Regenerate with `dune exec \
       bench/main.exe` (see docs/observability.md for the schema).\n\n%s\n"
      (meta_string "timestamp" (iso_timestamp ()))
      (meta_string "commit" (git_commit ()))
      (if meta_dirty then " (dirty)" else "")
      !quick
      (Stabexp.Report.to_markdown (timing_table measured));
    (match compare_section with
    | None -> ()
    | Some md -> Printf.fprintf oc "\n## Comparison\n\n%s\n" md);
    close_out oc;
    Printf.printf "(wrote markdown report to %s)\n\n%!" !report_path
  end

(* --- the compare gate --- *)

let run_compare doc =
  if !compare_path = "" then (None, false)
  else begin
    match Stabexp.Benchcmp.load !compare_path with
    | Error e ->
      Printf.eprintf "bench: cannot load baseline: %s\n%!" e;
      (None, true)
    | Ok baseline -> (
      match Stabexp.Benchcmp.of_json doc with
      | Error e ->
        Printf.eprintf "bench: candidate record malformed: %s\n%!" e;
        (None, true)
      | Ok candidate ->
        (match Stabexp.Benchcmp.cores_mismatch ~baseline ~candidate with
        | Some w -> Printf.eprintf "bench: WARNING: %s\n%!" w
        | None -> ());
        let deltas =
          Stabexp.Benchcmp.compare_docs ~gate_pct:!gate_pct ~baseline ~candidate
            ()
        in
        Stabexp.Report.print (Stabexp.Benchcmp.report deltas);
        let failures = Stabexp.Benchcmp.gate_failures deltas in
        let md =
          Stabexp.Benchcmp.markdown ~gate_pct:!gate_pct ~baseline ~candidate deltas
        in
        if failures <> [] then
          Printf.eprintf
            "bench: %d significant regression(s) beyond %.0f%%: %s\n%!"
            (List.length failures) !gate_pct
            (String.concat ", "
               (List.map (fun d -> d.Stabexp.Benchcmp.name) failures))
        else
          Printf.printf "bench gate: PASS (no significant regression ≥ %.0f%%)\n\n%!"
            !gate_pct;
        (Some md, failures <> []))
  end

(* --- parts 2-4: the reproduced artifacts --- *)

let print_figures () =
  let fig1 = Stabexp.Figures.fig1 () in
  print_string fig1.Stabexp.Figures.rendering;
  print_newline ();
  let fig2 = Stabexp.Figures.fig2 () in
  print_string fig2.Stabexp.Figures.rendering;
  print_newline ();
  let fig3 = Stabexp.Figures.fig3 () in
  print_string fig3.Stabexp.Figures.rendering;
  print_newline ()

let print_theorems () =
  let ok = ref true in
  List.iter
    (fun r ->
      Stabexp.Report.print (Stabexp.Theorems.report r);
      let holds = Stabexp.Theorems.all_hold r in
      if not holds then ok := false;
      Printf.printf "   => %s\n\n" (if holds then "VERIFIED" else "FAILED"))
    (Stabexp.Theorems.all ());
  !ok

let print_quantitative () =
  let _, t1 = Stabexp.Quantitative.e1_token_sweep ~quick:true () in
  Stabexp.Report.print t1;
  let _, t2 = Stabexp.Quantitative.e2_leader_sweep ~quick:true () in
  Stabexp.Report.print t2;
  let _, t3 = Stabexp.Quantitative.e3_transformer_overhead ~quick:true () in
  Stabexp.Report.print t3;
  let _, t4 = Stabexp.Quantitative.e4_scheduler_comparison ~quick:true () in
  Stabexp.Report.print t4;
  Stabexp.Report.print (Stabexp.Quantitative.e5_convergence_radius ~quick:true ());
  Stabexp.Report.print (Stabexp.Quantitative.e6_steps_vs_rounds ~quick:true ());
  Stabexp.Report.print (Stabexp.Quantitative.e7_convergence_curves ~quick:true ());
  Stabexp.Report.print (Stabexp.Quantitative.e9_sync_orbit_census ~quick:true ());
  Stabexp.Report.print (Stabexp.Quantitative.e10_fault_recovery ~quick:true ());
  Stabexp.Report.print (Stabexp.Quantitative.e11_availability ~quick:true ());
  Stabexp.Report.print (Stabexp.Portfolio.dijkstra_k_threshold ());
  let _, portfolio = Stabexp.Portfolio.classify () in
  Stabexp.Report.print portfolio;
  let _, taxonomy = Stabexp.Portfolio.taxonomy () in
  Stabexp.Report.print taxonomy;
  let _, crash = Stabexp.Portfolio.crash_resilience () in
  Stabexp.Report.print crash;
  let _, radii = Stabexp.Portfolio.resilience_radii () in
  Stabexp.Report.print radii;
  print_faults_campaign ()

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  print_endline "=== Part 1: micro-benchmarks (calibrated batches, distribution) ===\n";
  let measured = run_benchmarks () in
  Stabexp.Report.print (timing_table measured);
  (* The expand-ws entries pin the pool width; everything after part 1
     (reference-pipeline profile, figure/theorem replay) runs at the
     default again. *)
  Stabcore.Pool.set_width (Stabcore.Pool.default_width ());
  let doc = build_doc measured in
  write_doc doc;
  append_history doc;
  let compare_md, gate_failed = run_compare doc in
  write_report doc measured compare_md;
  let theorems_ok =
    if !micro_only then true
    else begin
      print_endline "=== Part 2: reproduced figures ===\n";
      print_figures ();
      print_endline "=== Part 3: theorem verdicts ===\n";
      let ok = print_theorems () in
      print_endline "=== Part 4: quantitative experiments (E1-E4) ===\n";
      print_quantitative ();
      ok
    end
  in
  if not theorems_ok then prerr_endline "bench: some theorem checks FAILED";
  if gate_failed then prerr_endline "bench: perf gate FAILED";
  if (not theorems_ok) || gate_failed then exit 1
