(* The four workloads of the end-to-end benchmark, and the request each
   of them sends to the library.

   A request is what one [stabsim check] / [markov] / [campaign]
   invocation asks for: it regenerates its inputs from (workload, index,
   seed), calls the public library functions from outside, each inside
   a [bench.<layer>] span, and then checks the answer against the oracle
   in [Expected]. Everything a request measures lands in its [ctx]. *)

open Stabcore
open Stabcampaign
module Obs = Stabobs.Obs
module Json = Stabobs.Json

type t = Exact_self | Weak_pipeline | Quotient_markov | Campaign_kill_resume

let all = [ Exact_self; Weak_pipeline; Quotient_markov; Campaign_kill_resume ]

let name = function
  | Exact_self -> "exact-self"
  | Weak_pipeline -> "weak-pipeline"
  | Quotient_markov -> "quotient-markov"
  | Campaign_kill_resume -> "campaign-kill-resume"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Pool width each workload asks for; the parent process caps it at nproc - 1.
   Width 2 on exact-self is the pool-parallel expansion path, width 1
   elsewhere keeps the serial paths and exact allocation counts. The
   campaign runs one worker: on a 2-core host two workers were no
   faster and their cell latencies did not repeat run to run. *)
let width = function
  | Exact_self -> 2
  | Weak_pipeline | Quotient_markov | Campaign_kill_resume -> 1

(* Requests in one round, the workload's fixed request list: a campaign
   round is a draining process followed by the process that resumes it. *)
let round_length = function
  | Exact_self | Weak_pipeline | Quotient_markov -> 1
  | Campaign_kill_resume -> 2

type size = Full | Smoke

(* Instance sizes. Smoke sizes keep `dune runtest` under a few seconds.
   Full sizes keep a round between a quarter of a second and a few
   seconds: on a shared host the speed changes within seconds, and a
   run needs many rounds for its median to hold. The token ring on
   ring:10 took 5 s and 1.2 GB per request; the next size down with a
   full space of its own is ring:8 (ring:9 has 512 configurations). *)
let exact_self_ring = function Full -> 10 | Smoke -> 5
let weak_pipeline_ring = function Full -> 8 | Smoke -> 6
let quotient_rings = function Full -> [ 10; 15 ] | Smoke -> [ 6; 7 ]
let campaign_runs = function Full -> 2500 | Smoke -> 50
let campaign_stop_after = function Full -> 50 | Smoke -> 4

type ctx = {
  size : size;
  seed : int;
  index : int;
  width : int;
  work : string;  (** directory for the campaign's checkpoint files *)
  traced : bool;
  mutable counts : (string * float) list;
      (** layer counts from return values, in both runs *)
  mutable answers_ns : int list;
      (** per-answer times when a request gives several (campaign cells) *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

(* Counts of the same name add up, over the instances of one request. *)
let count ctx name v =
  let prev = Option.value ~default:0. (List.assoc_opt name ctx.counts) in
  ctx.counts <- (name, prev +. v) :: List.remove_assoc name ctx.counts

let error ctx fmt =
  Printf.ksprintf (fun s -> ctx.errors <- s :: ctx.errors) fmt

(* One call into a library layer, inside the span the traced run
   attributes its time to. *)
let layer name f = Obs.span ("bench." ^ name) f

(* [layer], also recording the calling domain's minor allocation in
   mega-words. The count is exact only at pool width 1: helper domains
   allocate on their own heaps. *)
let layer_alloc ctx name metric f =
  let w0 = Gc.minor_words () in
  let r = layer name f in
  count ctx metric ((Gc.minor_words () -. w0) /. 1e6);
  r

let bytes v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8))

(* {1 Oracle helpers} *)

let check_bool ctx what ~expected actual =
  if actual <> expected then error ctx "%s: got %b, expected %b" what actual expected

let check_int ctx what ~expected actual =
  if actual <> expected then error ctx "%s: got %d, expected %d" what actual expected

let check_float ctx what ~expected actual =
  if not (Expected.close ~expected actual) then
    error ctx "%s: got %.17g, expected %.17g" what actual expected

let check_verdict ctx ~(expected : Expected.verdict) v =
  check_bool ctx "weak" ~expected:expected.weak (Checker.weak_stabilizing v);
  check_bool ctx "self" ~expected:expected.self (Checker.self_stabilizing v);
  check_bool ctx "self under strong fairness" ~expected:expected.strongly_fair
    (Checker.self_stabilizing_strongly_fair v);
  check_bool ctx "self under weak fairness" ~expected:expected.weakly_fair
    (Checker.self_stabilizing_weakly_fair v)

(* ||x - 1 - P x||_inf over the transient rows, read from the chain's
   merged rows rather than the solver's blocked sweeps. *)
let residual chain ~legitimate x =
  let worst = ref 0. in
  for i = 0 to Markov.states chain - 1 do
    if not legitimate.(i) then begin
      let px =
        List.fold_left
          (fun acc (j, p) -> if legitimate.(j) then acc else acc +. (p *. x.(j)))
          0. (Markov.row chain i)
      in
      worst := Float.max !worst (Float.abs (x.(i) -. 1. -. px))
    end
  done;
  !worst

let check_hitting ctx ~n chain ~legitimate (stats : Markov.hitting_stats) =
  let mean, max = Expected.token_ring_hitting n in
  check_float ctx (Printf.sprintf "ring:%d hitting mean" n) ~expected:mean stats.mean;
  check_float ctx (Printf.sprintf "ring:%d hitting max" n) ~expected:max stats.max;
  let r = residual chain ~legitimate stats.times in
  if not (r <= Expected.residual_bound) then
    error ctx "ring:%d residual %.3g above %.0e" n r Expected.residual_bound

let converged ctx = function
  | Markov.Converged s -> s
  | Markov.Max_sweeps s ->
    error ctx "sparse solve hit its sweep budget";
    s

let solve_counts ctx (s : Markov.solve_stats) =
  count ctx "markov.solve_sweeps" (float_of_int s.sweeps);
  count ctx "markov.solve_blocks" (float_of_int s.blocks)

let entry ~protocol ~topology = Stabexp.Registry.find ~name:protocol ~topology ()
let ring n = Printf.sprintf "ring:%d" n

(* Every exact workload asks about the distributed class. *)
let cls = Statespace.Distributed

(* [Checker.expand] then [Checker.analyze], counting what was expanded. *)
let check_space ctx space spec =
  let g =
    layer_alloc ctx "expand" "checker.expand_minor_mw" (fun () -> Checker.expand space cls)
  in
  let v = layer "analyze" (fun () -> Checker.analyze space cls spec) in
  count ctx "checker.configs" (float_of_int (Statespace.count space));
  count ctx "checker.edges" (float_of_int (Checker.graph_edge_count g));
  (g, v)

let force_fairness v =
  layer "fairness" (fun () ->
      ignore (Checker.self_stabilizing_strongly_fair v);
      ignore (Checker.self_stabilizing_weakly_fair v))

(* The chain under the distributed randomized daemon, its
   probability-1 check and a hitting-time [solve]; returns the oracle
   for the token ring of size [n]. *)
let hitting_times ctx ~n space spec ~solve =
  let chain =
    layer_alloc ctx "of_space" "markov.of_space_minor_mw" (fun () ->
        Markov.of_space space Markov.Distributed_uniform)
  in
  let legitimate = Statespace.legitimate_set space spec in
  let prob1 = layer "prob1" (fun () -> Markov.converges_with_prob_one chain ~legitimate) in
  let stats, outcome = layer "solve" (fun () -> solve chain ~legitimate) in
  Option.iter (fun o -> solve_counts ctx (converged ctx o)) outcome;
  fun () ->
    if Result.is_error prob1 then error ctx "ring:%d: no probability-1 convergence" n;
    check_hitting ctx ~n chain ~legitimate stats;
    if ctx.traced then count ctx "markov.chain_bytes" (bytes chain)

(* {1 exact-self}

   Dijkstra's three-state ring under the distributed class: the
   exact-verdict path, where certain convergence short-circuits the
   fairness checks and the worst-case stabilization time is defined. *)

let exact_self ctx =
  let n = exact_self_ring ctx.size in
  let (Stabexp.Registry.Entry { protocol; spec; _ }) =
    entry ~protocol:"dijkstra-3state" ~topology:(ring n)
  in
  fun () ->
    let space = layer "build" (fun () -> Statespace.build protocol) in
    let g, v = check_space ctx space spec in
    force_fairness v;
    let worst =
      layer "worst_case" (fun () ->
          let legitimate = Statespace.legitimate_set space spec in
          Checker.worst_case_steps space g ~legitimate)
    in
    fun () ->
      check_verdict ctx ~expected:Expected.dijkstra3 v;
      (match worst with
      | None -> error ctx "worst_case_steps: None on a self-stabilizing ring"
      | Some w ->
        check_int ctx "worst-case steps" ~expected:(Expected.dijkstra3_worst_case n)
          (Array.fold_left max 0 w));
      if ctx.traced then count ctx "checker.graph_bytes" (bytes g)

(* {1 weak-pipeline}

   The token ring of Algorithm 1 on the full space: the paper's
   weak-stabilizing case end to end, from the verdicts with fairness
   forced to the expected stabilization time under the distributed
   randomized daemon. One cached expansion serves the check and the
   chain. *)

let weak_pipeline ctx =
  let n = weak_pipeline_ring ctx.size in
  let (Stabexp.Registry.Entry { protocol; spec; _ }) =
    entry ~protocol:"token-ring" ~topology:(ring n)
  in
  let gauss_seidel chain ~legitimate =
    let times, outcome =
      Markov.sparse_hitting_times ~kind:Markov.Gauss_seidel ~tolerance:1e-10 chain
        ~legitimate
    in
    (Markov.stats_of_times times, Some outcome)
  in
  fun () ->
    let space = layer "build" (fun () -> Statespace.build protocol) in
    let g, v = check_space ctx space spec in
    force_fairness v;
    let check_chain = hitting_times ctx ~n space spec ~solve:gauss_seidel in
    fun () ->
      check_verdict ctx ~expected:Expected.token_ring v;
      check_chain ();
      if ctx.traced then count ctx "checker.graph_bytes" (bytes g)

(* {1 quotient-markov}

   Token-ring quotients of two sizes, whose symmetry groups differ in
   order: the only workload where symmetry canonicalization dominates.
   The lumped chain's hitting times, weighted by orbit size, must equal
   the full chain's. One request answers both sizes, so every request
   costs the same and the latency percentiles describe one population. *)

let quotient_one ctx n =
  let (Stabexp.Registry.Entry { protocol; spec; relabel; _ }) =
    entry ~protocol:"token-ring" ~topology:(ring n)
  in
  fun () ->
    let base = layer "build" (fun () -> Statespace.build protocol) in
    let space =
      layer_alloc ctx "quotient" "symmetry.quotient_minor_mw" (fun () ->
          Statespace.quotient ?relabel base)
    in
    let g, v = check_space ctx space spec in
    let check_chain =
      hitting_times ctx ~n space spec
        ~solve:(fun chain ~legitimate ->
          Markov.hitting_stats_checked ?weights:(Statespace.orbit_sizes space) chain
            ~legitimate)
    in
    count ctx "symmetry.orbits" (float_of_int (Statespace.count space));
    fun () ->
      if not (Statespace.is_quotient space) then error ctx "ring:%d: no quotient" n;
      check_bool ctx "weak" ~expected:true (Checker.weak_stabilizing v);
      check_bool ctx "self" ~expected:false (Checker.self_stabilizing v);
      check_chain ();
      if ctx.traced then count ctx "checker.graph_bytes" (bytes g)

let quotient_markov ctx =
  let runs = List.map (quotient_one ctx) (quotient_rings ctx.size) in
  fun () ->
    let checks = List.map (fun run -> run ()) runs in
    fun () -> List.iter (fun check -> check ()) checks

(* {1 campaign-kill-resume}

   A seeded campaign of 98 cells run by one worker with an fsync'd
   checkpoint. Even requests start it fresh and drain after a
   fixed number of checkpoint appends, as a kill would stop it; odd
   requests time the checkpoint load and resume the same campaign. *)

let str s = Json.String s

let cell ?(sched = "central") ?faults ?(transformed = false) protocol topology
    analysis =
  Json.Obj
    ([
       ("protocol", str protocol);
       ("topology", str topology);
       ("sched", str sched);
       ("analysis", str analysis);
       ("transformed", Json.Bool transformed);
     ]
    @ match faults with None -> [] | Some f -> [ ("faults", str f) ])

let campaign_json size ~seed =
  let strs l = Json.List (List.map str l) in
  let tree n = Printf.sprintf "random:%d:%d" n seed in
  let rings, runs, cells =
    match size with
    | Full ->
      ( [ 4; 5; 6; 7; 8 ],
        campaign_runs Full,
        [
          cell "two-bool" "ring:2" "check";
          cell "two-bool" "ring:2" "markov";
          cell "leader-tree" (tree 7) "check";
          cell "leader-tree" (tree 7) "markov";
          cell ~sched:"synchronous" ~transformed:true "leader-tree" (tree 10)
            "montecarlo";
          cell ~faults:"periodic:50:1" "token-ring" "ring:8" "montecarlo";
          cell ~faults:"burst:100:2" "token-ring" "ring:8" "montecarlo";
          cell "token-ring" "ring:10" "markov";
        ] )
    | Smoke ->
      ( [ 4; 5 ],
        campaign_runs Smoke,
        [
          cell "two-bool" "ring:2" "check";
          cell "leader-tree" (tree 5) "check";
          cell ~faults:"periodic:50:1" "token-ring" "ring:5" "montecarlo";
        ] )
  in
  Json.Obj
    [
      ("name", str (Printf.sprintf "e2e-%d" seed));
      ("seed", Json.Int seed);
      ("runs", Json.Int runs);
      ("max_steps", Json.Int 1_000_000);
      ( "matrix",
        Json.Obj
          [
            ( "protocol",
              strs
                (match size with
                | Full -> [ "token-ring"; "dijkstra-3state"; "coloring" ]
                | Smoke -> [ "token-ring"; "coloring" ]) );
            ("topology", strs (List.map ring rings));
            ("sched", strs [ "central"; "distributed" ]);
            ("analysis", strs [ "check"; "markov"; "montecarlo" ]);
          ] );
      ("cells", Json.List cells);
    ]

let float_field name payload =
  match Json.member name payload with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field name payload =
  match Json.member name payload with Some (Json.Int i) -> Some i | _ -> None

(* Exact cells do not depend on the seed, so their payloads must equal
   the pinned ones; seed-dependent cells (random trees, sampling) are
   checked for the facts every seed shares. *)
let check_cell ctx (o : Runner.cell_outcome) =
  let label = Campaign.cell_label o.cell in
  let wrong fmt = Printf.ksprintf (fun s -> error ctx "%s: %s" label s) fmt in
  let before = List.length ctx.errors in
  (match o.status with
  | Checkpoint.Done -> ()
  | s -> wrong "status %s" (Checkpoint.status_to_string s));
  (match (o.cell.analysis, Expected.campaign_cell label) with
  | (Campaign.Check | Campaign.Markov), Some pinned ->
    if not (Expected.payload_equal ~expected:pinned o.payload) then
      wrong "payload %s, expected %s" (Json.to_string o.payload) pinned
  | (Campaign.Check | Campaign.Markov), None ->
    let holds field =
      match Json.member field o.payload with Some (Json.Bool b) -> b | _ -> false
    in
    let field =
      if o.cell.analysis = Campaign.Check then "weak" else "prob1"
    in
    if not (holds field) then wrong "%s does not hold: %s" field (Json.to_string o.payload)
  | Campaign.Montecarlo, _ -> (
    match (int_field "converged" o.payload, int_field "timeouts" o.payload) with
    | Some c, Some 0 when c = o.cell.runs -> ()
    | _ -> wrong "runs did not all converge: %s" (Json.to_string o.payload)));
  ctx.attempted <- ctx.attempted + 1;
  if List.length ctx.errors > before then ctx.failed <- ctx.failed + 1

let runner_counts ctx ~workers ~wall_ns outcomes =
  let executed = List.filter (fun o -> not o.Runner.from_checkpoint) outcomes in
  let sum_ns kind =
    List.fold_left
      (fun acc (o : Runner.cell_outcome) ->
        if o.cell.analysis = kind then acc + o.duration_ns else acc)
      0 executed
  in
  let s ns = float_of_int ns /. 1e9 in
  let cell_ns = List.fold_left (fun acc o -> acc + o.Runner.duration_ns) 0 executed in
  count ctx "runner.cell_s.check" (s (sum_ns Campaign.Check));
  count ctx "runner.cell_s.markov" (s (sum_ns Campaign.Markov));
  count ctx "runner.cell_s.montecarlo" (s (sum_ns Campaign.Montecarlo));
  count ctx "runner.busy_s" (s cell_ns);
  count ctx "runner.capacity_s" (s (workers * wall_ns));
  count ctx "runner.straggler_s"
    (s (List.fold_left (fun acc o -> max acc o.Runner.duration_ns) 0 executed));
  count ctx "montecarlo.steps"
    (List.fold_left
       (fun acc (o : Runner.cell_outcome) ->
         match (float_field "mean_steps" o.payload, int_field "converged" o.payload) with
         | Some m, Some c when o.cell.analysis = Campaign.Montecarlo ->
           acc +. (m *. float_of_int c)
         | _ -> acc)
       0. executed);
  ctx.answers_ns <- List.map (fun o -> o.Runner.duration_ns) executed

let campaign_kill_resume ctx =
  let spec =
    (* Each round draws its own campaign (trees and Monte-Carlo samples)
       so that the median over a run's rounds averages what the seed
       changes; both processes of a round share it. *)
    let seed = (ctx.seed * 1000) + (ctx.index / 2) in
    match Campaign.of_json (campaign_json ctx.size ~seed) with
    | Ok c -> c
    | Error e -> failwith ("campaign spec: " ^ e)
  in
  let total = List.length spec.cells in
  let stop_after = campaign_stop_after ctx.size in
  let workers = ctx.width in
  let resuming = ctx.index mod 2 = 1 in
  let path =
    Filename.concat ctx.work (Printf.sprintf "campaign-%d.ckpt.jsonl" (ctx.index / 2))
  in
  let options =
    {
      (Runner.default_options ()) with
      domains = workers;
      checkpoint = Some path;
      fresh = not resuming;
      stop_after = (if resuming then None else Some stop_after);
    }
  in
  fun () ->
    let records =
      if resuming then
        layer "checkpoint" (fun () ->
            let r = Checkpoint.load path in
            Hashtbl.length (Checkpoint.index r))
      else 0
    in
    let t0 = Obs.now_ns () in
    let outcomes, stats = layer "runner" (fun () -> Runner.run ~options spec) in
    let wall_ns = Obs.now_ns () - t0 in
    runner_counts ctx ~workers ~wall_ns outcomes;
    count ctx "runner.cells_skipped" (float_of_int stats.skipped);
    if resuming then
      count ctx "checkpoint.bytes" (float_of_int (Unix.stat path).Unix.st_size);
    fun () ->
      List.iter
        (fun o -> if not o.Runner.from_checkpoint then check_cell ctx o)
        outcomes;
      let before = List.length ctx.errors in
      if stats.cells <> total then error ctx "campaign has %d cells, expected %d" stats.cells total;
      if resuming then begin
        check_int ctx "checkpoint records" ~expected:stop_after records;
        check_int ctx "skipped cells" ~expected:stop_after stats.skipped;
        check_int ctx "executed + skipped" ~expected:total (stats.executed + stats.skipped);
        check_int ctx "unfinished cells" ~expected:0 stats.unfinished
      end
      else begin
        check_int ctx "cells before the drain" ~expected:stop_after stats.executed;
        check_int ctx "unfinished cells" ~expected:(total - stats.executed)
          stats.unfinished
      end;
      ctx.attempted <- ctx.attempted + 1;
      if List.length ctx.errors > before then ctx.failed <- ctx.failed + 1

(* Setup (registry lookup, campaign parse) runs here; the returned
   closure makes the layer calls and returns the oracle. *)
let prepare w ctx =
  match w with
  | Exact_self -> exact_self ctx
  | Weak_pipeline -> weak_pipeline ctx
  | Quotient_markov -> quotient_markov ctx
  | Campaign_kill_resume -> campaign_kill_resume ctx
