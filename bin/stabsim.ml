(* stabsim: command-line front end for the stabilization laboratory.

   Subcommands mirror the library pipeline: trace (simulate one
   execution), check (exhaustive stabilization verdicts), markov
   (probability-1 convergence and expected hitting times), montecarlo
   (sampled stabilization times), figures / theorems / experiments
   (paper reproduction reports). *)

open Cmdliner
module Obs = Stabobs.Obs
module Analysis = Stabcore.Analysis

(* --- observability: flags shared by every subcommand --- *)

let print_profile profile =
  match Obs.Profile.rows profile with
  | [] -> ()
  | rows ->
    (* Allocation columns appear only when GC sampling was on
       (--gc-stats), so the default table stays narrow. *)
    let with_gc =
      List.exists
        (fun (r : Obs.Profile.row) ->
          r.Obs.Profile.minor_words > 0 || r.Obs.Profile.major_collections > 0)
        rows
    in
    let columns = [ "phase"; "count"; "total"; "mean"; "max" ] in
    let columns = if with_gc then columns @ [ "minor alloc"; "major gc" ] else columns in
    let table = Stabexp.Report.create ~title:"per-phase timing" ~columns in
    List.iter
      (fun (r : Obs.Profile.row) ->
        let cells =
          [
            r.Obs.Profile.name;
            Stabexp.Report.cell_int r.Obs.Profile.count;
            Obs.pretty_ns r.Obs.Profile.total_ns;
            Obs.pretty_ns (r.Obs.Profile.total_ns / max 1 r.Obs.Profile.count);
            Obs.pretty_ns r.Obs.Profile.max_ns;
          ]
        in
        let cells =
          if with_gc then
            cells
            @ [
                Obs.pretty_words r.Obs.Profile.minor_words;
                Stabexp.Report.cell_int r.Obs.Profile.major_collections;
              ]
          else cells
        in
        Stabexp.Report.add_row table cells)
      rows;
    Stabexp.Report.print table;
    Printf.printf "wall clock: %s\n%!" (Obs.pretty_ns (Obs.Profile.wall_ns profile))

(* Per-domain pool utilization: how the task-execution time of the
   work-stealing pool split across its lanes. Empty (and silent) when
   nothing ran through the pool, e.g. at width 1. *)
let print_pool () =
  let lanes = List.filter (fun (_, ns) -> ns > 0) (Stabcore.Pool.busy_ns ()) in
  match lanes with
  | [] -> ()
  | lanes ->
    let total = List.fold_left (fun acc (_, ns) -> acc + ns) 0 lanes in
    let table =
      Stabexp.Report.create
        ~title:
          (Printf.sprintf "pool busy time (width %d)" (Stabcore.Pool.width ()))
        ~columns:[ "lane"; "busy"; "share" ]
    in
    List.iter
      (fun (lane, ns) ->
        Stabexp.Report.add_row table
          [
            lane;
            Obs.pretty_ns ns;
            Printf.sprintf "%.1f%%" (100.0 *. float_of_int ns /. float_of_int total);
          ])
      lanes;
    Stabexp.Report.print table

let print_counters () =
  match List.filter (fun (_, v) -> v <> 0) (Obs.Counter.snapshot ()) with
  | [] -> ()
  | nonzero ->
    let table = Stabexp.Report.create ~title:"counters" ~columns:[ "counter"; "value" ] in
    List.iter
      (fun (name, v) -> Stabexp.Report.add_row table [ name; Stabexp.Report.cell_int v ])
      nonzero;
    Stabexp.Report.print table

let print_dists () =
  match Stabobs.Dist.snapshot () with
  | [] -> ()
  | dists ->
    let table =
      Stabexp.Report.create ~title:"distributions"
        ~columns:[ "distribution"; "count"; "mean"; "p50"; "p95"; "max" ]
    in
    List.iter
      (fun (name, (s : Stabobs.Dist.summary)) ->
        Stabexp.Report.add_row table
          [
            name;
            Stabexp.Report.cell_int s.Stabobs.Dist.count;
            Printf.sprintf "%.3g" s.Stabobs.Dist.mean;
            Printf.sprintf "%.3g" s.Stabobs.Dist.p50;
            Printf.sprintf "%.3g" s.Stabobs.Dist.p95;
            Printf.sprintf "%.3g" s.Stabobs.Dist.max;
          ])
      dists;
    Stabexp.Report.print table

(* Sinks are installed before the subcommand body runs and closed by
   [at_exit Obs.clear], so file-backed sinks flush their trailers even
   when the command errors out. SIGINT/SIGTERM get handlers that exit
   through [at_exit] (130/143, the shell's signal-exit codes) instead
   of the default immediate death, so a ^C mid-run still leaves valid
   JSONL / Chrome-trace files behind. The campaign subcommand replaces
   these with its drain-first handlers. *)
let default_flight_dump () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "stabsim-%d.flight.jsonl" (Unix.getpid ()))

let setup_obs verbose quiet log_json trace profile gc_stats domains no_flight
    flight_dump =
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle
          (fun _ ->
            Stabobs.Flight.set_pending "fatal signal: SIGINT";
            exit 130));
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            Stabobs.Flight.set_pending "fatal signal: SIGTERM";
            exit 143))
   with Invalid_argument _ | Sys_error _ -> ());
  (* The flight recorder is always on (opt out with --no-flight): per-
     Domain rings record at ring cost, and a crash dump is written only
     when a fatal path latched a reason — via at_exit for signal exits,
     directly from the uncaught-exception handler (which OCaml runs
     *after* at_exit) for crashes. Clean exits leave no artifact. *)
  if not no_flight then begin
    Stabobs.Flight.enable ();
    Stabobs.Flight.set_exit_dump
      (match flight_dump with Some p -> p | None -> default_flight_dump ());
    Printexc.set_uncaught_exception_handler (fun exn bt ->
        Stabobs.Flight.set_pending
          ("uncaught exception: " ^ Printexc.to_string exn);
        Stabobs.Flight.dump_pending ();
        Printexc.default_uncaught_exception_handler exn bt)
  end;
  Option.iter Stabcore.Pool.set_width domains;
  (match (quiet, List.length verbose) with
  | true, _ -> Obs.set_level Obs.Quiet
  | false, 0 -> ()
  | false, 1 -> Obs.set_level Obs.Info
  | false, _ -> Obs.set_level Obs.Debug);
  if gc_stats then Obs.set_gc_sampling true;
  at_exit Obs.clear;
  if (not quiet) && verbose <> [] then Obs.install (Obs.stderr_sink ());
  (match log_json with
  | None -> ()
  | Some path -> Obs.install (Obs.jsonl_channel (open_out path)));
  (match trace with
  | None -> ()
  | Some path -> Obs.install (Obs.chrome_channel (open_out path)));
  if profile then begin
    let p = Obs.Profile.create () in
    Obs.install (Obs.Profile.sink p);
    at_exit (fun () ->
        print_profile p;
        print_pool ();
        print_counters ();
        print_dists ())
  end

let obs_term =
  let verbose_arg =
    let doc =
      "Echo span timings to stderr and raise the log level (repeatable: $(b,-v) info, \
       $(b,-vv) debug)."
    in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let quiet_arg =
    let doc = "Silence warnings and degradation notices." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let log_json_arg =
    let doc = "Write telemetry (spans, counters, messages) to $(docv) as JSON lines." in
    Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Write a Chrome trace_event file to $(docv): one lane per Domain, spans as \
       nested slices (open in chrome://tracing or Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let profile_arg =
    let doc = "Collect per-phase timings and print profile tables on exit." in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let gc_stats_arg =
    let doc =
      "Sample the GC around every span: spans carry allocation deltas, the \
       profile table gains allocation columns, and the $(b,gc.minor_words) / \
       $(b,gc.major_collections) counters tick."
    in
    Arg.(value & flag & info [ "gc-stats" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Width of the work-stealing Domain pool shared by every parallel stage \
       (state-space expansion, quotient canonicalization, Monte-Carlo \
       sampling, campaign workers). Default: the \
       recommended domain count minus one, at least 1; values below 1 are \
       clamped."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let no_flight_arg =
    let doc =
      "Disable the always-on flight recorder (per-Domain rings of the last \
       events, dumped as a JSONL artifact on crash — see $(b,stabsim doctor))."
    in
    Arg.(value & flag & info [ "no-flight" ] ~doc)
  in
  let flight_dump_arg =
    let doc =
      "Where the crash flight dump is written (default: \
       $(b,stabsim-<pid>.flight.jsonl) in the system temp directory; the \
       campaign subcommand additionally keeps dumps next to its checkpoint)."
    in
    Arg.(
      value & opt (some string) None & info [ "flight-dump" ] ~docv:"FILE" ~doc)
  in
  Term.(
    const setup_obs $ verbose_arg $ quiet_arg $ log_json_arg $ trace_arg
    $ profile_arg $ gc_stats_arg $ domains_arg $ no_flight_arg
    $ flight_dump_arg)

(* --- shared arguments --- *)

let protocol_arg =
  let doc =
    Printf.sprintf "Protocol name. One of: %s." (String.concat ", " Stabexp.Registry.names)
  in
  Arg.(value & opt string "token-ring" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let topology_arg =
  let doc =
    "Topology: ring:N (or a bare integer), chain:N, star:N, or random:N:SEED \
     (random tree). Ring protocols need rings; tree protocols need trees."
  in
  Arg.(value & opt string "ring:5" & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)

let transformed_arg =
  let doc = "Apply the Section 4 coin-toss transformer to the protocol." in
  Arg.(value & flag & info [ "transformed" ] ~doc)

let seed_arg =
  let doc = "PRNG seed; equal seeds reproduce runs exactly." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Integers below [least] fail with cmdliner's usage error, before the
   subcommand prints anything. *)
let int_at_least least what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Counts and budgets. *)
let positive = int_at_least 1 "positive"

(* Lengths where 0 means "nothing beyond the start" (the initial
   configuration, an empty timeline). *)
let non_negative = int_at_least 0 "non-negative"

(* Tolerances: a negative or non-finite value would never be met, so it
   fails at parse time instead of spending a whole sweep budget. *)
let tolerance =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a non-negative finite number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let steps_arg =
  let doc = "Maximum number of steps to simulate." in
  Arg.(value & opt non_negative 50 & info [ "steps" ] ~docv:"STEPS" ~doc)

(* Scheduler/class/randomization names are validated at parse time
   (Arg.enum), so a typo yields cmdliner's one-line usage error and a
   non-zero exit instead of an exception from deep inside a run. *)
let scheduler_names =
  [
    ("central-random", `Central_random);
    ("distributed-random", `Distributed_random);
    ("synchronous", `Synchronous);
    ("central-first", `Central_first);
    ("round-robin", `Round_robin);
  ]

let scheduler_arg =
  let doc =
    "Scheduler: central-random, distributed-random, synchronous, central-first, \
     round-robin."
  in
  Arg.(
    value
    & opt (enum scheduler_names) `Distributed_random
    & info [ "s"; "scheduler" ] ~docv:"SCHED" ~doc)

let scheduler_label kind =
  fst (List.find (fun (_, k) -> k = kind) scheduler_names)

let instantiate_scheduler : type a. _ -> unit -> a Stabcore.Scheduler.t = function
  | `Central_random -> Stabcore.Scheduler.central_random
  | `Distributed_random -> Stabcore.Scheduler.distributed_random
  | `Synchronous -> Stabcore.Scheduler.synchronous
  | `Central_first -> Stabcore.Scheduler.central_first
  | `Round_robin -> Stabcore.Scheduler.round_robin

let sched_class_arg =
  let doc = "Scheduler class for exhaustive checking: central, distributed, synchronous." in
  Arg.(
    value
    & opt
        (enum
           [
             ("central", Stabcore.Statespace.Central);
             ("distributed", Stabcore.Statespace.Distributed);
             ("synchronous", Stabcore.Statespace.Synchronous);
           ])
        Stabcore.Statespace.Distributed
    & info [ "class" ] ~docv:"CLASS" ~doc)

let quick_arg =
  let doc = "Keep experiment instance sizes small (fast); disable for the full sweep." in
  Arg.(value & opt bool true & info [ "quick" ] ~docv:"BOOL" ~doc)

(* Hitting-time solver selection, shared by `markov` and
   `experiments`. [None] keeps the library's size-based default,
   [Markov.default_method]. *)
let solver_term =
  let solver_arg =
    let doc =
      Printf.sprintf
        "Hitting-time solver: auto (dense up to %d transient states, sparse Gauss-Seidel \
         above), exact (dense Gaussian elimination), gs (BSCC-blocked sparse \
         Gauss-Seidel), jacobi (BSCC-blocked sparse Jacobi)."
        Stabcore.Markov.dense_limit
    in
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("exact", `Exact); ("gs", `Gs); ("jacobi", `Jacobi) ]) `Auto
      & info [ "solver" ] ~docv:"SOLVER" ~doc)
  in
  let tol_arg =
    let doc =
      "Relative-residual stopping tolerance of the sparse solvers \
       (ignored by $(b,exact))."
    in
    Arg.(value & opt tolerance 1e-10 & info [ "tol" ] ~docv:"TOL" ~doc)
  in
  let max_sweeps_arg =
    let doc = "Sweep budget per strongly connected block of the sparse solvers." in
    Arg.(value & opt positive 1_000_000 & info [ "max-sweeps" ] ~docv:"N" ~doc)
  in
  let make solver tolerance max_sweeps =
    match solver with
    | `Auto -> None
    | `Exact -> Some Stabcore.Markov.Exact
    | `Gs ->
      Some
        (Stabcore.Markov.Sparse
           { kind = Stabcore.Markov.Gauss_seidel; tolerance; max_sweeps })
    | `Jacobi ->
      Some (Stabcore.Markov.Sparse { kind = Stabcore.Markov.Jacobi; tolerance; max_sweeps })
  in
  Term.(const make $ solver_arg $ tol_arg $ max_sweeps_arg)

let crash_arg =
  let doc = "Crash-fault the listed processes (comma-separated ids)." in
  Arg.(value & opt (list int) [] & info [ "crash" ] ~docv:"I,J,..." ~doc)

let wrap f =
  try Ok (f ()) with
  | Invalid_argument msg | Failure msg -> Error (`Msg msg)
  | Sys_error msg -> Error (`Msg msg)

let file_arg =
  let doc =
    "Load the protocol from a .gcp file instead of the built-in registry (the \
     topology argument still applies)."
  in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

(* Resolve the protocol either from a GCP file or from the registry. *)
let resolve ~protocol ~topology ~transformed ~file =
  match file with
  | None -> Stabexp.Registry.find ~name:protocol ~topology ~transformed ()
  | Some path ->
    let program =
      match Stabgcp.Gcp.load path with Ok p -> p | Error m -> failwith m
    in
    let graph = Stabexp.Registry.topology_of_string topology in
    let base_protocol, spec =
      match Stabgcp.Gcp.instantiate program graph with
      | Ok pair -> pair
      | Error m -> failwith m
    in
    let label =
      Printf.sprintf "%s(%s)" (Stabgcp.Gcp.name program) topology
    in
    let describe = Printf.sprintf "loaded from %s" path in
    if transformed then
      Stabexp.Registry.Entry
        {
          label = "trans(" ^ label ^ ")";
          protocol = Stabcore.Transformer.randomize base_protocol;
          spec = Stabcore.Transformer.lift_spec spec;
          relabel = None;
          describe;
        }
    else
      Stabexp.Registry.Entry
        { label; protocol = base_protocol; spec; relabel = None; describe }

(* The subcommands answer on a fixed rung: a rung that cannot answer is
   an error, not a demotion. *)
let answered r = Result.fold ~ok:Fun.id ~error:failwith r

(* --- trace --- *)

let trace_cmd =
  let run () protocol topology transformed file seed steps scheduler crash wake_p =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let rng = Stabrng.Rng.create seed in
        let sched = instantiate_scheduler scheduler () in
        let sched =
          if crash = [] then sched
          else Stabcore.Scheduler.crash ~wake_p ~failed:crash sched
        in
        let init = Stabcore.Protocol.random_config rng e.protocol in
        let result =
          Stabcore.Engine.run ~stop_on:e.spec ~max_steps:steps rng e.protocol sched ~init
        in
        Format.printf "%s under %s (seed %d)@.%s@.@.%a@.@.stop: %s after %d steps@."
          e.label sched.Stabcore.Scheduler.name seed e.describe
          (Stabcore.Trace.pp e.protocol)
          result.Stabcore.Engine.trace
          (match result.Stabcore.Engine.stop with
          | Stabcore.Engine.Converged -> "converged to the legitimate set"
          | Stabcore.Engine.Terminal -> "reached a terminal configuration"
          | Stabcore.Engine.Exhausted -> "step budget exhausted"
          | Stabcore.Engine.Stalled -> "stalled: every enabled process is crashed")
          result.Stabcore.Engine.steps)
  in
  let wake_p_arg =
    let doc =
      "Wake probability for crashed processes (0 = permanent crash; intermittent \
       otherwise)."
    in
    Arg.(value & opt float 0.0 & info [ "wake-p" ] ~docv:"P" ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ seed_arg $ steps_arg $ scheduler_arg $ crash_arg $ wake_p_arg))
  in
  Cmd.v (Cmd.info "trace" ~doc:"Simulate one execution and print its trace.") term

(* --- check --- *)

let check_cmd =
  let run () protocol topology transformed file cls crash quotient =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        (* --crash asks the Dolev-Herman question: does stabilization
           survive when these processes permanently stop executing?
           Decided exhaustively on the induced sub-protocol. *)
        let protocol, label =
          if crash = [] then (e.protocol, e.label)
          else
            let crashed = Stabcore.Faults.crash_protocol e.protocol ~failed:crash in
            ( crashed,
              Printf.sprintf "%s, crash-faulted [%s]" e.label
                (String.concat "," (List.map string_of_int crash)) )
        in
        let space, v =
          let instance = Analysis.instance ?relabel:e.relabel protocol e.spec in
          answered (Analysis.verdicts (Analysis.request ~quotient instance cls))
        in
        Format.printf "%s under the %a class (%d configurations)@.%s@."
          label Stabcore.Statespace.pp_sched_class cls
          (Stabcore.Statespace.count (Stabcore.Statespace.base space))
          e.describe;
        if quotient then
          if Stabcore.Statespace.is_quotient space then
            Format.printf
              "symmetry quotient: group order %d, %d orbit representatives@."
              (Stabcore.Statespace.symmetry_order space)
              (Stabcore.Statespace.count space)
          else
            Format.printf
              "symmetry quotient: validated group is trivial, full space retained@.";
        Format.printf "@.%a@.@." Stabcore.Checker.pp_verdict v;
        Format.printf "verdicts:@.  weak-stabilizing: %b@.  self-stabilizing (unfair): %b@.  \
                       self-stabilizing (weakly fair): %b@.  self-stabilizing (strongly fair): %b@."
          (Stabcore.Checker.weak_stabilizing v)
          (Stabcore.Checker.self_stabilizing v)
          (Stabcore.Checker.self_stabilizing_weakly_fair v)
          (Stabcore.Checker.self_stabilizing_strongly_fair v))
  in
  let quotient_arg =
    let doc =
      "Analyze the symmetry quotient: eager verdicts are computed on one representative \
       per orbit of the validated automorphism group; fairness verdicts are decided \
       against the full space, since per-process fairness is not orbit-invariant \
       (identical answers either way, fewer states for the non-fairness checks)."
    in
    Arg.(value & flag & info [ "quotient" ] ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ sched_class_arg $ crash_arg $ quotient_arg))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Exhaustively decide weak/self stabilization (small instances).")
    term

(* --- markov --- *)

(* The uniform randomized daemon of each scheduler class, by name. *)
let randomizations =
  [
    ("central-random", Stabcore.Statespace.Central);
    ("distributed-random", Stabcore.Statespace.Distributed);
    ("synchronous", Stabcore.Statespace.Synchronous);
  ]

let markov_cmd =
  let run () protocol topology transformed file cls quotient hitting allow_nonconverged =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let randomization = fst (List.find (fun (_, c) -> c = cls) randomizations) in
        (* A sweep-budget exhaustion is kept: the policy (fail loudly vs.
           --allow-nonconverged) lives here. *)
        let space, hitting =
          let instance = Analysis.instance ?relabel:e.relabel e.protocol e.spec in
          answered
            (Analysis.chain ~keep_nonconverged:true
               (Analysis.request ~quotient ?hitting instance cls))
        in
        if Stabcore.Statespace.is_quotient space then
          Format.printf "orbit-lumped chain: %d states for %d configurations@."
            (Stabcore.Statespace.count space)
            (Stabcore.Statespace.count (Stabcore.Statespace.base space));
        (match hitting with
        | Ok (stats, outcome) ->
          let nonconverged =
            match outcome with
            | Some (Stabcore.Markov.Converged s) ->
              Format.printf
                "sparse solve: %d blocks, %d sweeps, final relative residual %g@."
                s.Stabcore.Markov.blocks s.Stabcore.Markov.sweeps
                s.Stabcore.Markov.residual;
              false
            | Some (Stabcore.Markov.Max_sweeps s) ->
              Obs.warnf
                "sparse solver did NOT converge: %d sweeps across %d blocks exhausted \
                 (final relative residual %g); the times below are a partial iterate, \
                 not the exact expectation"
                s.Stabcore.Markov.sweeps s.Stabcore.Markov.blocks
                s.Stabcore.Markov.residual;
              if not allow_nonconverged then
                failwith
                  "sparse solver did not converge; retry with a larger --max-sweeps, \
                   --solver exact, or pass --allow-nonconverged to accept the partial \
                   iterate";
              true
            | None -> false
          in
          Format.printf
            "%s: converges with probability 1 under %s@.expected stabilization time%s: \
             mean %.4f steps, worst initial configuration %.4f steps@."
            e.label randomization
            (if nonconverged then " (NONCONVERGED partial iterate)" else "")
            stats.Stabcore.Markov.mean stats.Stabcore.Markov.max
        | Error c ->
          Format.printf
            "%s: does NOT converge with probability 1 under %s@.counterexample \
             configuration (code %d): %a@."
            e.label randomization c
            (Stabcore.Protocol.pp_config e.protocol)
            (Stabcore.Statespace.config space c)))
  in
  let randomization_arg =
    let doc = "Randomized daemon: central-random, distributed-random, synchronous." in
    Arg.(
      value
      & opt (enum randomizations) Stabcore.Statespace.Distributed
      & info [ "r"; "randomization" ] ~docv:"R" ~doc)
  in
  let quotient_arg =
    let doc =
      "Solve the orbit-lumped chain: one state per symmetry orbit, orbit sizes \
       weighting the mean (identical numbers, smaller linear system)."
    in
    Arg.(value & flag & info [ "quotient" ] ~doc)
  in
  let allow_nonconverged_arg =
    let doc =
      "Accept a sparse solve that exhausted its sweep budget: warn, report the partial \
       iterate (clearly marked), and exit 0 instead of failing."
    in
    Arg.(value & flag & info [ "allow-nonconverged" ] ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ randomization_arg $ quotient_arg $ solver_term $ allow_nonconverged_arg))
  in
  Cmd.v
    (Cmd.info "markov"
       ~doc:
         "Probability-1 convergence and expected stabilization times (dense or sparse \
          BSCC-blocked solvers).")
    term

(* --- montecarlo --- *)

let montecarlo_cmd =
  let run () protocol topology transformed file seed scheduler runs max_steps =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let rng = Stabrng.Rng.create seed in
        let sched = instantiate_scheduler scheduler in
        let result =
          Stabcore.Montecarlo.estimate ~runs ~max_steps rng e.protocol sched e.spec
        in
        Format.printf "%s under %s: %d runs from uniform initial configurations@.%a@."
          e.label (scheduler_label scheduler) runs Stabcore.Montecarlo.pp_result result)
  in
  let runs_arg =
    Arg.(value & opt positive 1000 & info [ "runs" ] ~docv:"RUNS" ~doc:"Number of sampled runs.")
  in
  let max_steps_arg =
    Arg.(
      value & opt positive 1_000_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Per-run step budget before declaring a timeout.")
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ seed_arg $ scheduler_arg $ runs_arg $ max_steps_arg))
  in
  Cmd.v (Cmd.info "montecarlo" ~doc:"Sampled stabilization-time estimates.") term

(* --- reach (on-the-fly analysis) --- *)

let reach_cmd =
  let run () protocol topology transformed file cls seed inits max_states =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let space, { Stabcore.Onthefly.possible; certain; stats } =
          answered
            Analysis.(
              reachable
                (request ~max_configs:max_states ~inits:(Random_inits inits) ~seed
                   (instance e.protocol e.spec) cls))
        in
        let show verdict what =
          Format.printf "%s: %s (explored %d configurations, %d edges%s)@." what
            (match verdict with
            | Stabcore.Onthefly.Converges -> "HOLDS on the reachable sub-system"
            | Stabcore.Onthefly.Counterexample code ->
              Format.asprintf "FAILS; counterexample %a"
                (Stabcore.Protocol.pp_config e.protocol)
                (Stabcore.Statespace.config space code)
            | Stabcore.Onthefly.Unknown -> "UNKNOWN (state budget exhausted)")
            stats.Stabcore.Onthefly.explored stats.Stabcore.Onthefly.edges
            (if stats.Stabcore.Onthefly.complete then "" else "; incomplete")
        in
        Format.printf "%s under the %a class, %d random initial configurations (seed %d)@."
          e.label Stabcore.Statespace.pp_sched_class cls inits seed;
        show possible "possible convergence (weak)";
        show certain "certain convergence (self)")
  in
  let inits_arg =
    Arg.(
      value & opt positive 5
      & info [ "inits" ] ~docv:"K" ~doc:"Number of random initial configurations.")
  in
  let max_states_arg =
    Arg.(
      value & opt positive 1_000_000
      & info [ "max-states" ] ~docv:"N" ~doc:"On-the-fly exploration budget.")
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ sched_class_arg $ seed_arg $ inits_arg $ max_states_arg))
  in
  Cmd.v
    (Cmd.info "reach"
       ~doc:
        "On-the-fly convergence analysis from random initial configurations \
         (scales far beyond exhaustive checking).")
    term

(* --- orbit (synchronous census) --- *)

let orbit_cmd =
  let run () protocol topology transformed file =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let space = Stabcore.Statespace.build e.protocol in
        let census = Stabcore.Checker.sync_orbit_census space in
        Format.printf
          "%s: synchronous limit-cycle census over %d configurations@.\
           (length 0 = reaches a terminal configuration)@.@."
          e.label (Stabcore.Statespace.count space);
        List.iter
          (fun (length, count) -> Format.printf "  cycle length %d: %d configurations@." length count)
          census)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg))
  in
  Cmd.v
    (Cmd.info "orbit"
       ~doc:"Census of synchronous limit cycles (how prevalent Figure-3 oscillations are).")
    term

(* --- faults (the resilience lab) --- *)

(* Find a legitimate configuration to corrupt by simulation — the
   fallback when the space is too large to enumerate [L] exactly. *)
let hunt_legitimate_start rng (p : 'a Stabcore.Protocol.t) spec =
  let rec hunt attempts =
    if attempts = 0 then
      failwith "could not reach a legitimate configuration to corrupt"
    else begin
      let init = Stabcore.Protocol.random_config rng p in
      let r =
        Stabcore.Engine.run ~record:false ~stop_on:spec ~max_steps:100_000 rng p
          (Stabcore.Scheduler.central_random ())
          ~init
      in
      if r.Stabcore.Engine.stop = Stabcore.Engine.Converged then r.Stabcore.Engine.final
      else hunt (attempts - 1)
    end
  in
  hunt 50

let faults_cmd =
  let run () protocol topology transformed file cls seed ks runs horizon gap max_configs =
    wrap (fun () ->
        let (Stabexp.Registry.Entry e) = resolve ~protocol ~topology ~transformed ~file in
        let ks = List.sort_uniq compare ks in
        if ks = [] then invalid_arg "no fault counts given";
        if List.exists (fun k -> k < 0) ks then invalid_arg "negative fault count";
        let sched = Analysis.scheduler cls in
        let rng = Stabrng.Rng.create seed in
        let inst = Analysis.instance e.protocol e.spec in
        let availability_line start k =
          let plan = Stabcore.Faults.periodic e.protocol ~gap ~faults:k in
          let s =
            Stabcore.Faults.availability_profile ~runs ~horizon rng e.protocol sched
              e.spec ~plan ~init:start
          in
          Format.printf
            "  k = %d under %s: mean availability %.4f (ci95 [%.4f, %.4f], min %.4f over \
             %d runs)@."
            k
            (Stabcore.Faults.plan_name plan)
            s.Stabstats.Stats.mean s.Stabstats.Stats.ci95_low s.Stabstats.Stats.ci95_high
            s.Stabstats.Stats.min s.Stabstats.Stats.count
        in
        let montecarlo_block start =
          Format.printf "sampled recovery from a stabilized start, %s daemon:@."
            (sched ()).Stabcore.Scheduler.name;
          List.iter
            (fun k ->
              let profile =
                Stabcore.Faults.recovery_profile ~runs ~max_steps:1_000_000 rng e.protocol
                  sched e.spec ~from:start ~faults:k
              in
              Format.printf "  k = %d faults: %a@." k Stabcore.Montecarlo.pp_result
                profile)
            ks;
          Format.printf "availability under recurrent faults (horizon %d steps):@." horizon;
          List.iter (availability_line start) ks
        in
        match Analysis.(plan (request ~max_configs inst cls)) with
        | Analysis.Fits space ->
          let n = Stabcore.Statespace.count space in
          Format.printf "%s resilience under the %a class (%d configurations, exact)@.%s@.@."
            e.label Stabcore.Statespace.pp_sched_class cls n e.describe;
          let max_k = List.fold_left max 0 ks in
          (* Metrics for every budget up to the largest requested: the
             intermediate budgets are what make the radius exact. *)
          let metrics =
            Stabcore.Resilience.analyze space cls e.spec
              ~ks:(List.init (max_k + 1) Fun.id)
          in
          List.iter
            (fun (m : Stabcore.Resilience.metric) ->
              if List.mem m.k ks then begin
                Format.printf
                  "k = %d: %d faulty configurations (%d outside L)@.  guaranteed \
                   recovery: %s@.  prob-1 recovery under the randomized daemon: %b@."
                  m.k m.faulty_configs m.corrupted_configs
                  (match m.worst_case with
                  | Some w -> Printf.sprintf "yes (exact worst case %d steps)" w
                  | None -> "no (worst case unbounded)")
                  m.prob_one;
                (match (m.expected_mean, m.expected_max) with
                | Some mean, Some worst ->
                  Format.printf
                    "  expected recovery: mean %.4f steps, worst faulty configuration \
                     %.4f steps@."
                    mean worst
                | _ ->
                  Format.printf
                    "  expected recovery: undefined (not probabilistically stabilizing \
                     from all of C)@.")
              end)
            metrics;
          let r = Stabcore.Resilience.radius_of metrics in
          Format.printf
            "resilience radius (k <= %d): adversarial %d, probabilistic %d@.@."
            r.Stabcore.Resilience.max_k r.Stabcore.Resilience.adversarial
            r.Stabcore.Resilience.probabilistic;
          let legitimate = Stabcore.Statespace.legitimate_set space e.spec in
          let start =
            let rec first c =
              if c >= n then failwith "empty legitimate set: nothing to corrupt"
              else if legitimate.(c) then Stabcore.Statespace.config space c
              else first (c + 1)
            in
            first 0
          in
          Format.printf "availability under recurrent faults (horizon %d steps):@." horizon;
          List.iter (availability_line start) ks
        | Analysis.Over_budget space ->
          Obs.warnf
            "warning: %d configurations exceed the exact budget (--max-configs %d); \
             degrading to on-the-fly + Monte-Carlo analysis"
            (Stabcore.Statespace.count space)
            max_configs;
          Format.printf "%s resilience under the %a class (on-the-fly)@.%s@.@." e.label
            Stabcore.Statespace.pp_sched_class cls e.describe;
          let start = hunt_legitimate_start rng e.protocol e.spec in
          let samples = min runs 20 in
          List.iter
            (fun k ->
              let inits =
                List.init samples (fun _ ->
                    Stabcore.Faults.corrupt rng e.protocol start ~faults:k)
              in
              let verdict_string = function
                | Stabcore.Onthefly.Converges -> "holds on the reachable sub-system"
                | Stabcore.Onthefly.Counterexample c ->
                  Printf.sprintf "fails (counterexample code %d)" c
                | Stabcore.Onthefly.Unknown -> "unknown (state budget exhausted)"
              in
              let _, { Stabcore.Onthefly.possible; certain; stats } =
                answered Analysis.(reachable (request ~max_configs ~inits:(Inits inits) inst cls))
              in
              Format.printf
                "k = %d (%d sampled corruptions): possible convergence %s; certain \
                 convergence %s (explored %d configurations)@."
                k samples (verdict_string possible) (verdict_string certain)
                stats.Stabcore.Onthefly.explored)
            ks;
          Format.printf "@.";
          montecarlo_block start
        | Analysis.Too_large reason ->
          Obs.warnf "warning: %s; degrading to Monte-Carlo analysis" reason;
          Format.printf "%s resilience under the %a class (sampled only)@.%s@.@." e.label
            Stabcore.Statespace.pp_sched_class cls e.describe;
          let start = hunt_legitimate_start rng e.protocol e.spec in
          montecarlo_block start)
  in
  let faults_list_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3 ]
      & info [ "k" ] ~docv:"K,K,..." ~doc:"Fault counts to profile.")
  in
  let runs_arg =
    Arg.(value & opt positive 500 & info [ "runs" ] ~docv:"RUNS" ~doc:"Runs per fault count.")
  in
  let horizon_arg =
    Arg.(
      value & opt positive 2_000
      & info [ "horizon" ] ~docv:"N" ~doc:"Steps per availability run.")
  in
  let gap_arg =
    Arg.(
      value & opt positive 50
      & info [ "gap" ] ~docv:"G" ~doc:"Steps between recurrent fault injections.")
  in
  let max_configs_arg =
    Arg.(
      value & opt positive 2_000_000
      & info [ "max-configs" ] ~docv:"N"
          ~doc:
            "Exact-analysis budget; larger spaces degrade to on-the-fly exploration or \
             Monte-Carlo sampling with a warning.")
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_arg $ topology_arg $ transformed_arg $ file_arg
       $ sched_class_arg $ seed_arg $ faults_list_arg $ runs_arg $ horizon_arg $ gap_arg
       $ max_configs_arg))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
        "The resilience lab: exact per-k recovery radius, recovery-time profiles and \
         availability under recurrent fault injection.")
    term

(* --- profile (per-phase telemetry over the whole pipeline) --- *)

(* Machine-readable twin of the profile tables: same rows, exact
   nanoseconds instead of pretty-printed durations. *)
let profile_json profile =
  let module Json = Stabobs.Json in
  Json.Obj
    [
      ("wall_ns", Json.Int (Obs.Profile.wall_ns profile));
      ( "phases",
        Json.List
          (List.map
             (fun (r : Obs.Profile.row) ->
               Json.Obj
                 [
                   ("name", Json.String r.Obs.Profile.name);
                   ("count", Json.Int r.Obs.Profile.count);
                   ("total_ns", Json.Int r.Obs.Profile.total_ns);
                   ("max_ns", Json.Int r.Obs.Profile.max_ns);
                   ("minor_words", Json.Int r.Obs.Profile.minor_words);
                   ("major_collections", Json.Int r.Obs.Profile.major_collections);
                 ])
             (Obs.Profile.rows profile)) );
      ( "counters",
        Json.Obj
          (List.filter_map
             (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
             (Obs.Counter.snapshot ())) );
      ( "dists",
        Json.Obj
          (List.map
             (fun (name, (s : Stabobs.Dist.summary)) ->
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Int s.Stabobs.Dist.count);
                     ("mean", Json.Float s.Stabobs.Dist.mean);
                     ("p50", Json.Float s.Stabobs.Dist.p50);
                     ("p95", Json.Float s.Stabobs.Dist.p95);
                     ("p99", Json.Float s.Stabobs.Dist.p99);
                     ("max", Json.Float s.Stabobs.Dist.max);
                   ] ))
             (Stabobs.Dist.snapshot ())) );
      ( "pool",
        Json.Obj
          [
            ("width", Json.Int (Stabcore.Pool.width ()));
            ( "busy_ns",
              Json.Obj
                (List.map
                   (fun (lane, ns) -> (lane, Json.Int ns))
                   (Stabcore.Pool.busy_ns ())) );
            ( "grain_ns_per_unit",
              Json.Obj
                (List.map
                   (fun (site, c) -> (site, Json.Float c))
                   (Stabcore.Pool.Grain.snapshot ())) );
          ] );
      (* The full Registry snapshot (gauges + labels included), so one
         document carries phases, pool state and gauges together. The
         counters/dists above stay for compatibility; this section is
         the complete metric view. *)
      ( "registry",
        Stabobs.Registry.snapshot_json (Stabobs.Registry.snapshot ()) );
    ]

let profile_cmd =
  let run () protocol n topology cls seed runs json =
    wrap (fun () ->
        let topology =
          match topology with
          | Some t -> t
          | None ->
            (* Tree protocols cannot live on a ring; everything else
               defaults to one. *)
            let shape =
              match protocol with
              | "leader-tree" | "centers" | "center-leader" -> "chain"
              | _ -> "ring"
            in
            Printf.sprintf "%s:%d" shape n
        in
        let (Stabexp.Registry.Entry e) =
          resolve ~protocol ~topology ~transformed:false ~file:None
        in
        let profile = Obs.Profile.create () in
        Obs.install (Obs.Profile.sink profile);
        Obs.Counter.reset_all ();
        (* The full pipeline, end to end: exhaustive verdicts, the
           induced Markov chain, and a Monte-Carlo estimate, each phase
           showing up as its own span. The three questions share one
           instance, hence one space and one expansion. *)
        let inst = Analysis.instance e.protocol e.spec in
        let request = Analysis.request ~seed ~runs inst cls in
        let space, v = answered (Analysis.verdicts request) in
        let hitting = Result.map fst (snd (answered (Analysis.chain request))) in
        let mc = Analysis.simulate request in
        let prob1 = Result.is_ok hitting and hit_stats = Result.to_option hitting in
        if json then begin
          let module Json = Stabobs.Json in
          let doc =
            Json.Obj
              [
                ("protocol", Json.String e.label);
                ( "class",
                  Json.String
                    (Format.asprintf "%a" Stabcore.Statespace.pp_sched_class cls) );
                ("configs", Json.Int (Stabcore.Statespace.count space));
                ( "verdicts",
                  Json.Obj
                    [
                      ("weak", Json.Bool (Stabcore.Checker.weak_stabilizing v));
                      ("self", Json.Bool (Stabcore.Checker.self_stabilizing v));
                      ("prob1", Json.Bool prob1);
                    ] );
                ( "hitting",
                  match hit_stats with
                  | Some s ->
                    Json.Obj
                      [
                        ("mean", Json.Float s.Stabcore.Markov.mean);
                        ("max", Json.Float s.Stabcore.Markov.max);
                      ]
                  | None -> Json.Null );
                ( "montecarlo",
                  Json.Obj
                    [
                      ("runs", Json.Int runs);
                      ( "converged",
                        Json.Int (Array.length mc.Stabcore.Montecarlo.times) );
                      ("timeouts", Json.Int mc.Stabcore.Montecarlo.timeouts);
                      ( "mean_steps",
                        match mc.Stabcore.Montecarlo.summary with
                        | Some s -> Json.Float s.Stabstats.Stats.mean
                        | None -> Json.Null );
                    ] );
                ("profile", profile_json profile);
              ]
          in
          print_endline (Json.to_string ~minify:false doc)
        end
        else begin
          Format.printf "%s under the %a class (%d configurations)@.%s@.@." e.label
            Stabcore.Statespace.pp_sched_class cls
            (Stabcore.Statespace.count space)
            e.describe;
          Format.printf
            "verdicts: weak-stabilizing %b, self-stabilizing %b, prob-1 convergence %b@."
            (Stabcore.Checker.weak_stabilizing v)
            (Stabcore.Checker.self_stabilizing v)
            prob1;
          (match hit_stats with
          | Some s ->
            Format.printf "expected stabilization time: mean %.4f steps, worst %.4f steps@."
              s.Stabcore.Markov.mean s.Stabcore.Markov.max
          | None -> ());
          Format.printf "montecarlo (%d runs): %a@.@." runs Stabcore.Montecarlo.pp_result mc;
          print_profile profile;
          print_pool ();
          print_counters ();
          print_dists ()
        end)
  in
  let protocol_pos_arg =
    let doc =
      Printf.sprintf "Protocol to profile. One of: %s."
        (String.concat ", " Stabexp.Registry.names)
    in
    Arg.(value & pos 0 string "token-ring" & info [] ~docv:"PROTOCOL" ~doc)
  in
  let n_arg =
    let doc = "Instance size (ring:N, or chain:N for tree protocols)." in
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc)
  in
  let topology_opt_arg =
    let doc = "Explicit topology; overrides $(b,--n)." in
    Arg.(value & opt (some string) None & info [ "t"; "topology" ] ~docv:"TOPO" ~doc)
  in
  let runs_arg =
    Arg.(
      value & opt positive 200
      & info [ "runs" ] ~docv:"RUNS" ~doc:"Monte-Carlo runs to sample.")
  in
  let json_arg =
    let doc =
      "Emit one JSON document (verdicts, per-phase timings, counters, \
       distributions) instead of the human tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ protocol_pos_arg $ n_arg $ topology_opt_arg
       $ sched_class_arg $ seed_arg $ runs_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
        "Run the full checker pipeline on one instance and print per-phase timing and \
         counter tables.")
    term

(* --- figures / theorems / experiments --- *)

let figures_cmd =
  let run () =
    wrap (fun () ->
        print_string (Stabexp.Figures.fig1 ()).Stabexp.Figures.rendering;
        print_newline ();
        print_string (Stabexp.Figures.fig2 ()).Stabexp.Figures.rendering;
        print_newline ();
        print_string (Stabexp.Figures.fig3 ()).Stabexp.Figures.rendering)
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's Figures 1-3 (example executions).")
    Term.(term_result (const run $ obs_term))

let theorems_cmd =
  let run () id =
    wrap (fun () ->
        let results = Stabexp.Theorems.all () in
        let selected =
          match id with
          | None -> results
          | Some id ->
            List.filter
              (fun r -> String.lowercase_ascii r.Stabexp.Theorems.id = String.lowercase_ascii id)
              results
        in
        if selected = [] then failwith "no such theorem id (use e.g. T2 or T8/T9)";
        List.iter
          (fun r ->
            Stabexp.Report.print (Stabexp.Theorems.report r);
            Printf.printf "   => %s\n\n"
              (if Stabexp.Theorems.all_hold r then "VERIFIED" else "FAILED"))
          selected)
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Check a single theorem (T1, T2, T3, T4, T6, T7, T8/T9).")
  in
  Cmd.v
    (Cmd.info "theorems" ~doc:"Machine-check the paper's theorems on small instances.")
    Term.(term_result (const run $ obs_term $ id_arg))

let experiments_cmd =
  let run () quick seed method_ =
    wrap (fun () ->
        let _, t1 = Stabexp.Quantitative.e1_token_sweep ?method_ ~seed ~quick () in
        Stabexp.Report.print t1;
        let _, t2 =
          Stabexp.Quantitative.e2_leader_sweep ?method_ ~seed:(seed + 1) ~quick ()
        in
        Stabexp.Report.print t2;
        let _, t3 = Stabexp.Quantitative.e3_transformer_overhead ?method_ ~quick () in
        Stabexp.Report.print t3;
        let _, t4 = Stabexp.Quantitative.e4_scheduler_comparison ?method_ ~quick () in
        Stabexp.Report.print t4;
        Stabexp.Report.print (Stabexp.Quantitative.e5_convergence_radius ~quick ());
        Stabexp.Report.print (Stabexp.Quantitative.e6_steps_vs_rounds ~seed:(seed + 2) ~quick ());
        Stabexp.Report.print (Stabexp.Quantitative.e7_convergence_curves ~quick ());
        Stabexp.Report.print (Stabexp.Quantitative.e9_sync_orbit_census ~quick ());
        Stabexp.Report.print
          (Stabexp.Quantitative.e10_fault_recovery ~seed:(seed + 3) ~quick ());
        Stabexp.Report.print
          (Stabexp.Quantitative.e11_availability ~seed:(seed + 4) ~quick ()))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the quantitative experiments E1-E7 (expected stabilization times).")
    Term.(term_result (const run $ obs_term $ quick_arg $ seed_arg $ solver_term))

let portfolio_cmd =
  let run () =
    wrap (fun () ->
        let _, table = Stabexp.Portfolio.classify () in
        Stabexp.Report.print table;
        let _, taxonomy = Stabexp.Portfolio.taxonomy () in
        Stabexp.Report.print taxonomy;
        Stabexp.Report.print (Stabexp.Portfolio.dijkstra_k_threshold ());
        let _, crash = Stabexp.Portfolio.crash_resilience () in
        Stabexp.Report.print crash;
        let _, radii = Stabexp.Portfolio.resilience_radii () in
        Stabexp.Report.print radii)
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
        "Classify every bundled algorithm under every scheduler class (tables P1, P2, E8).")
    Term.(term_result (const run $ obs_term))

let bench_cmd =
  let run () baseline candidate gate_pct markdown =
    wrap (fun () ->
        let load path =
          match Stabexp.Benchcmp.load path with
          | Ok doc -> doc
          | Error e -> failwith e
        in
        let baseline = load baseline in
        let candidate = load candidate in
        (match Stabexp.Benchcmp.cores_mismatch ~baseline ~candidate with
        | Some w -> Obs.warnf "bench: %s" w
        | None -> ());
        let deltas =
          Stabexp.Benchcmp.compare_docs ~gate_pct ~baseline ~candidate ()
        in
        Stabexp.Report.print (Stabexp.Benchcmp.report deltas);
        (match markdown with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Stabexp.Benchcmp.markdown ~gate_pct ~baseline ~candidate deltas);
          close_out oc);
        match Stabexp.Benchcmp.gate_failures deltas with
        | [] -> Printf.printf "gate: PASS (no significant regression >= %.0f%%)\n" gate_pct
        | failures ->
          (* A failed gate is not a usage error: exit 1, not cmdliner's 124. *)
          Printf.eprintf "stabsim: gate: FAIL — %d significant regression(s): %s\n"
            (List.length failures)
            (String.concat ", " (List.map (fun d -> d.Stabexp.Benchcmp.name) failures));
          exit 1)
  in
  let baseline_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline bench record (e.g. the committed BENCH_checker.json).")
  in
  let candidate_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "candidate" ] ~docv:"FILE"
          ~doc:"Candidate bench record (a fresh $(b,bench/main.exe --json) output).")
  in
  let gate_pct_arg =
    Arg.(
      value
      & opt tolerance 20.0
      & info [ "gate-pct" ] ~docv:"P"
          ~doc:
            "Fail only on mean slowdowns of at least $(docv) percent that also \
             exceed the pooled ci95 noise band of the two records.")
  in
  let markdown_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "markdown" ] ~docv:"FILE"
          ~doc:"Also write the delta table as GitHub markdown to $(docv).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Compare two bench records and gate on statistically significant \
          regressions (exit 1 when the gate fails).")
    Term.(
      term_result
        (const run $ obs_term $ baseline_arg $ candidate_arg $ gate_pct_arg
        $ markdown_arg))

(* --- campaign (sharded, crash-resumable experiment matrices) --- *)

let campaign_cmd =
  let run () file checkpoint no_checkpoint fresh timeout_ms report_md
      status_socket status_port =
    wrap (fun () ->
        let campaign =
          match Stabcampaign.Campaign.load file with
          | Ok c -> c
          | Error m -> failwith m
        in
        (* Drain-first signal handling: the first ^C cancels in-flight
           cells and lets the checkpoint + sinks flush; an impatient
           second ^C exits immediately (still through at_exit). *)
        let signals = ref 0 in
        let graceful signal _ =
          incr signals;
          if !signals = 1 then begin
            Stabobs.Flight.note "campaign: drain requested by signal";
            Stabcampaign.Runner.request_drain ()
          end
          else begin
            Stabobs.Flight.set_pending
              (Printf.sprintf "fatal signal: %d (drain abandoned)" signal);
            exit (128 + signal)
          end
        in
        Sys.set_signal Sys.sigint (Sys.Signal_handle (graceful 2));
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (graceful 15));
        let checkpoint =
          if no_checkpoint then None
          else
            Some
              (match checkpoint with
              | Some path -> path
              | None -> Filename.remove_extension file ^ ".checkpoint.jsonl")
        in
        let defaults = Stabcampaign.Runner.default_options () in
        let options =
          {
            defaults with
            Stabcampaign.Runner.checkpoint;
            fresh;
            (* The shared --domains flag sizes the pool; workers follow it. *)
            domains = Stabcore.Pool.width ();
            timeout_ms =
              (match timeout_ms with
              | Some _ -> timeout_ms
              | None -> defaults.Stabcampaign.Runner.timeout_ms);
            (* Flight dumps ride next to the checkpoint: the rolling
               dump survives a SIGKILL between checkpoints, and each
               quarantined / timed-out cell leaves its own artifact.
               --no-flight (the shared obs flag) turns the recorder
               off, which leaves the dumps empty of events, so skip
               them entirely in that case. *)
            flight =
              (if Stabobs.Flight.enabled () then
                 Option.map Filename.remove_extension checkpoint
               else None);
          }
        in
        let status_server =
          if status_socket = None && status_port = None then None
          else begin
            let s =
              Stabcampaign.Status.start ?socket:status_socket ?port:status_port ()
            in
            (match Stabcampaign.Status.port s with
            | Some p -> Obs.infof "status server listening on 127.0.0.1:%d" p
            | None -> ());
            Some s
          end
        in
        let outcomes, stats =
          Fun.protect
            ~finally:(fun () ->
              Option.iter Stabcampaign.Status.stop status_server)
            (fun () -> Stabcampaign.Runner.run ~options campaign)
        in
        let table = Stabcampaign.Runner.report campaign outcomes in
        Stabexp.Report.print table;
        (match report_md with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc (Stabexp.Report.to_markdown table);
          close_out oc);
        print_endline (Stabcampaign.Runner.summary_line stats);
        if stats.Stabcampaign.Runner.unfinished > 0 then begin
          (match checkpoint with
          | Some path ->
            Printf.printf "interrupted; rerun the same command to resume from %s\n" path
          | None ->
            print_endline "interrupted; no checkpoint was kept (--no-checkpoint)");
          exit 4
        end)
  in
  let file_pos_arg =
    let doc = "Campaign file (JSON); see docs/campaigns.md for the format." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Checkpoint file (JSONL). Defaults to the campaign file with a \
       $(b,.checkpoint.jsonl) extension. An existing checkpoint resumes the \
       campaign: finished cells are skipped."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let no_checkpoint_arg =
    let doc = "Run without a checkpoint (no resume, nothing written)." in
    Arg.(value & flag & info [ "no-checkpoint" ] ~doc)
  in
  let fresh_arg =
    let doc = "Truncate the checkpoint and start over instead of resuming." in
    Arg.(value & flag & info [ "fresh" ] ~doc)
  in
  let timeout_ms_arg =
    let doc =
      "Per-cell wall-clock timeout in milliseconds; overrides the campaign file. A \
       timed-out cell demotes down the exact / on-the-fly / Monte-Carlo ladder \
       before giving up."
    in
    Arg.(value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let report_md_arg =
    let doc = "Also write the result table as GitHub markdown to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report-md" ] ~docv:"FILE" ~doc)
  in
  let status_socket_arg =
    let doc =
      "Serve live $(b,/metrics) (Prometheus text) and $(b,/status) (JSON) on a \
       Unix-domain socket at $(docv) while the campaign runs. Query it with \
       $(b,stabsim status) $(docv) or curl --unix-socket."
    in
    Arg.(value & opt (some string) None & info [ "status-socket" ] ~docv:"PATH" ~doc)
  in
  let status_port_arg =
    let doc =
      "Also serve the status endpoints over TCP on 127.0.0.1:$(docv) (0 picks an \
       ephemeral port, logged at info level)."
    in
    Arg.(value & opt (some int) None & info [ "status-port" ] ~docv:"PORT" ~doc)
  in
  let term =
    Term.(
      term_result
        (const run $ obs_term $ file_pos_arg $ checkpoint_arg $ no_checkpoint_arg
       $ fresh_arg $ timeout_ms_arg $ report_md_arg
       $ status_socket_arg $ status_port_arg))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a sharded experiment matrix with per-cell timeouts, retry/backoff, \
          poison-cell quarantine, crash-resumable checkpoints and an optional \
          live status server.")
    term

(* --- status (client for the campaign status server) --- *)

let status_cmd =
  let run () target watch metrics =
    wrap (fun () ->
        let path = if metrics then "/metrics" else "/status" in
        let fetch_and_print () =
          match Stabcampaign.Status.client_fetch ~target ~path with
          | Error e -> failwith e
          | Ok body ->
            if metrics then print_string body
            else (
              match Stabobs.Json.of_string body with
              | Error e -> failwith (Printf.sprintf "bad /status document: %s" e)
              | Ok json -> print_string (Stabcampaign.Status.render_status json));
            flush stdout
        in
        match watch with
        | None -> fetch_and_print ()
        | Some secs ->
          let secs = Float.max 0.1 secs in
          while true do
            fetch_and_print ();
            print_endline "---";
            flush stdout;
            Unix.sleepf secs
          done)
  in
  let target_pos_arg =
    let doc =
      "Where the server listens: a Unix socket path (as given to \
       $(b,--status-socket)), $(b,:PORT) or $(b,HOST:PORT)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)
  in
  let watch_arg =
    let doc = "Poll every $(docv) seconds until interrupted." in
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECS" ~doc)
  in
  let metrics_arg =
    let doc = "Fetch the raw Prometheus $(b,/metrics) text instead of $(b,/status)." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let term =
    Term.(
      term_result (const run $ obs_term $ target_pos_arg $ watch_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Query a running campaign's status server and render the live progress \
          (cells settled, per-worker heartbeats, ETA).")
    term

(* --- doctor (post-mortem reader for flight dumps) --- *)

let doctor_cmd =
  let run () dump last =
    wrap (fun () ->
        match Stabcampaign.Doctor.load dump with
        | Error e -> failwith (Printf.sprintf "%s: %s" dump e)
        | Ok t -> print_string (Stabcampaign.Doctor.render ~last t))
  in
  let dump_pos_arg =
    let doc =
      "Flight-dump artifact (JSONL), as written on crash (see \
       $(b,--flight-dump)) or next to a campaign checkpoint \
       ($(b,*.flight.jsonl) rolling dump, $(b,*.flight-<hash>.jsonl) per \
       quarantined/timed-out cell)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DUMP" ~doc)
  in
  let last_arg =
    let doc = "Show the last $(docv) events of the merged timeline." in
    Arg.(value & opt non_negative 20 & info [ "last" ] ~docv:"N" ~doc)
  in
  let term = Term.(term_result (const run $ obs_term $ dump_pos_arg $ last_arg)) in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Render a flight-recorder dump: merged event timeline, per-Domain last \
          events, open spans at the time of death, metric snapshot and \
          heuristic hints (stalled cancel polls, sweep-budget exits, worker \
          heartbeat gaps).")
    term

let main =
  let doc = "stabilization laboratory: weak vs. self vs. probabilistic stabilization" in
  let info = Cmd.info "stabsim" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      trace_cmd;
      check_cmd;
      markov_cmd;
      montecarlo_cmd;
      figures_cmd;
      theorems_cmd;
      experiments_cmd;
      portfolio_cmd;
      reach_cmd;
      orbit_cmd;
      faults_cmd;
      profile_cmd;
      bench_cmd;
      campaign_cmd;
      status_cmd;
      doctor_cmd;
    ]

let () =
  (* cmdliner spells one-character names as short options; accept the
     natural "--n" for `profile --n 7` too. *)
  let argv = Array.map (function "--n" -> "-n" | a -> a) Sys.argv in
  (* catch:false so an unexpected exception reaches the uncaught-
     exception handler installed by setup_obs (which writes the flight
     dump) instead of being swallowed by cmdliner's pretty-printer.
     Expected errors still travel as [Error `Msg] through [wrap]. *)
  exit (Cmd.eval ~catch:false ~argv main)
