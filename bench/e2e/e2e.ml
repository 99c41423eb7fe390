(* End-to-end benchmark of record. See README.md.

   e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
           [--trace-dir DIR] [--smoke]
   e2e.exe --agree A.json[,A2.json...] B.json[,B2.json...]

   The parent process runs one workload as a closed loop with one client: it
   spawns one request process at a time (this executable with
   --request) and starts the next only after the previous one exits, so
   each request pays process start-up like a [stabsim] invocation and
   its peak RSS is its own. Rounds of the workload's request list repeat
   until the next round would overrun --seconds. *)

open Stabcore
module Obs = Stabobs.Obs
module Json = Stabobs.Json
module Stats = Stabstats.Stats

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

let s_of_ns ns = float_of_int ns /. 1e9

(* {1 Request process} *)

let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" @@ fun ic ->
  let rec go () =
    match In_channel.input_line ic with
    | None -> 0
    | Some line -> (
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> kb
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go ())
  in
  go ()

let int_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l)

(* The monotonic clock, and the CPU time (user + system, every thread)
   this process has used since exec. The CPU time leaves out the time
   the process waited for a core, and the time the virtual CPU waited
   for its host; what is left still follows the host's speed (see
   [yardstick]). *)
let clocks () = (Obs.now_ns (), int_of_float (Sys.time () *. 1e9))

(* Set-up is everything from exec to the first layer call: runtime
   start, the registry lookup or campaign parse, the pool width and the
   helper domains the warm-up spawns. *)
let set_up w (ctx : Workload.ctx) =
  let run = Workload.prepare w ctx in
  Pool.set_width ctx.width;
  Pool.scatter ctx.width ignore;
  run

(* A set-up probe: a request process that stops where its first layer
   call would start and prints its CPU time so far, in ns. *)
let setup_probe w ctx =
  let (_ : unit -> unit -> unit) = set_up w ctx in
  print_endline (string_of_int (snd (clocks ())))

(* Runs one request and prints its reply as one JSON line. *)
let request w (ctx : Workload.ctx) ~spawn_ns ~chrome =
  let profile =
    if ctx.traced then begin
      let p = Obs.Profile.create () in
      Obs.install (Obs.Profile.sink p);
      Option.iter (fun path -> Obs.install (Obs.chrome_channel (open_out path))) chrome;
      Some p
    end
    else None
  in
  let (t_first, cpu_first), (t_answer, cpu_answer), check =
    match
      let run = set_up w ctx in
      Pool.reset_busy ();
      Obs.Counter.reset_all ();
      let first = clocks () in
      let check = Obs.span "bench.request" run in
      (first, clocks (), check)
    with
    | r -> r
    | exception e ->
      let now = clocks () in
      (now, now, fun () -> raise e)
  in
  let hwm = vmhwm_kb () in
  let gc = Gc.quick_stat () in
  let busy = List.fold_left (fun acc (_, ns) -> acc + ns) 0 (Pool.busy_ns ()) in
  let layers =
    match profile with
    | None -> []
    | Some p ->
      List.filter_map
        (fun (r : Obs.Profile.row) ->
          match String.split_on_char '.' r.name with
          | [ "bench"; layer ] when layer <> "request" -> Some (layer, r.total_ns)
          | _ -> None)
        (Obs.Profile.rows p)
  in
  let pool =
    [
      ("busy_ns", busy);
      ("tasks", Obs.Counter.value Obs.pool_tasks);
      ("steals", Obs.Counter.value Obs.pool_steals);
      ("splits", Obs.Counter.value Obs.pool_splits);
    ]
  in
  (try check ()
   with e -> Workload.error ctx "raised %s" (Printexc.to_string e));
  Obs.clear ();
  let attempted, failed =
    if ctx.attempted = 0 then (1, if ctx.errors = [] then 0 else 1)
    else (ctx.attempted, max ctx.failed (if ctx.errors = [] then 0 else 1))
  in
  let answers =
    match ctx.answers_ns with [] -> [ t_answer - spawn_ns ] | l -> l
  in
  Json.Obj
    [
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("errors", Json.List (List.rev_map (fun e -> Json.String e) ctx.errors));
      ("answer_ns", Json.Int (t_answer - spawn_ns));
      ("request_ns", Json.Int (t_answer - t_first));
      ("setup_cpu_ns", Json.Int cpu_first);
      ("answer_cpu_ns", Json.Int cpu_answer);
      ("answers_ns", Json.List (List.map (fun ns -> Json.Int ns) answers));
      ("vmhwm_kb", Json.Int hwm);
      ( "gc",
        Json.Obj
          [
            ("top_heap_words", Json.Int gc.Gc.top_heap_words);
            ("major_collections", Json.Int gc.Gc.major_collections);
            ("minor_words", Json.Float gc.Gc.minor_words);
          ] );
      ("pool", int_obj pool);
      ("layers_ns", int_obj layers);
      ("counts", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Float v)) ctx.counts));
    ]
  |> Json.to_string |> print_endline

(* {1 Parent process} *)

type reply = {
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;
  answer_ns : int;
  request_ns : int;
  setup_cpu_ns : int;
  answer_cpu_ns : int;
  answers_ns : int list;
  vmhwm_kb : int;
  width : int;
  gc : (string * float) list;
  pool : (string * float) list;
  layers_ns : (string * float) list;
  counts : (string * float) list;
}

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let field name j = Json.member name j

let int_field name j =
  match field name j with Some (Json.Int i) -> i | _ -> failwith ("reply: " ^ name)

let num_obj name j =
  match field name j with
  | Some (Json.Obj l) -> List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (number v)) l
  | _ -> failwith ("reply: " ^ name)

let reply_of_json ~traced ~width j =
  {
    traced;
    width;
    attempted = int_field "attempted" j;
    failed = int_field "failed" j;
    errors =
      (match field "errors" j with
      | Some (Json.List l) -> List.map (function Json.String s -> s | v -> Json.to_string v) l
      | _ -> []);
    answer_ns = int_field "answer_ns" j;
    request_ns = int_field "request_ns" j;
    setup_cpu_ns = int_field "setup_cpu_ns" j;
    answer_cpu_ns = int_field "answer_cpu_ns" j;
    answers_ns =
      (match field "answers_ns" j with
      | Some (Json.List l) -> List.map (function Json.Int i -> i | _ -> 0) l
      | _ -> failwith "reply: answers_ns");
    vmhwm_kb = int_field "vmhwm_kb" j;
    gc = num_obj "gc" j;
    pool = num_obj "pool" j;
    layers_ns = num_obj "layers_ns" j;
    counts = num_obj "counts" j;
  }

let crashed ~traced ~width ~spawn_ns why =
  {
    traced;
    width;
    attempted = 1;
    failed = 1;
    errors = [ why ];
    answer_ns = Obs.now_ns () - spawn_ns;
    request_ns = 0;
    setup_cpu_ns = 0;
    answer_cpu_ns = 0;
    answers_ns = [];
    vmhwm_kb = 0;
    gc = [];
    pool = [];
    layers_ns = [];
    counts = [];
  }

let last_line s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | [] -> None
  | l :: _ -> Some l

(* Run this executable with [args] and wait for it: when it was spawned,
   how it ended and the last line it printed. *)
let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let spawn_ns = Obs.now_ns () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--spawn-ns" :: string_of_int spawn_ns :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (spawn_ns, status, last_line out)

(* Spawn one request process, wait for it, and read its reply. *)
let spawn ~args ~traced ~width =
  let spawn_ns, status, line = run_child args in
  match (status, line) with
  | Unix.WEXITED 0, Some line -> (
    match Json.of_string line with
    | Ok j -> (
      try reply_of_json ~traced ~width j
      with Failure e -> crashed ~traced ~width ~spawn_ns e)
    | Error e -> crashed ~traced ~width ~spawn_ns ("unparsable reply: " ^ e))
  | Unix.WEXITED c, _ -> crashed ~traced ~width ~spawn_ns (Printf.sprintf "exit %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
    crashed ~traced ~width ~spawn_ns (Printf.sprintf "signal %d" s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* {2 Metrics} *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let max_of f l = List.fold_left (fun acc x -> Float.max acc (f x)) 0. l
let get k l = Option.value ~default:0. (List.assoc_opt k l)
let quantile a q = if Array.length a = 0 then nan else Stats.quantile a q
let median l = quantile (Array.of_list l) 0.5
let ratio a b = if b > 0. then a /. b else 0.

(* {2 Host speed}

   On a shared host the CPU time of the same request drifts by half
   over minutes, as the neighbours load the memory system. The parent
   therefore times a fixed yardstick that writes memory as the requests
   do and calls nothing in the library, before and after every round,
   and scales the round's CPU times by [yardstick_ref_s] over its mean
   reading: every end-to-end time is in CPU seconds at the reference
   speed, the speed at which the yardstick takes [yardstick_ref_s]. A
   change to the library cannot move the yardstick. *)

let yardstick_ref_s = 0.1

(* 64 MiB, well past the last-level cache; allocated (and so faulted
   in) once, before the first reading. *)
let yardstick_buffer = lazy (Array.make (1 lsl 23) 0)

let yardstick () =
  let buffer = Lazy.force yardstick_buffer in
  let t0 = Sys.time () in
  for pass = 1 to 8 do
    Array.fill buffer 0 (Array.length buffer) pass
  done;
  Sys.time () -. t0

(* One pass over the workload's request list, with the CPU times of the
   set-up probes run with it, and the mean of the yardstick's readings
   just before and just after it. *)
type round = { yardstick_s : float; probes_cpu_ns : int list; replies : reply list }

let scale round = yardstick_ref_s /. round.yardstick_s
let round_wall_s round = sum (fun r -> s_of_ns r.answer_ns) round.replies
let round_cpu_s round = sum (fun r -> s_of_ns r.answer_cpu_ns) round.replies
let ref_cpu_s round = round_cpu_s round *. scale round

let answers_s replies =
  Array.of_list (List.concat_map (fun r -> List.map s_of_ns r.answers_ns) replies)

(* End-to-end metrics, from the untraced rounds only. Times are CPU
   times (see [clocks]) at the reference speed (see [yardstick]): on a
   shared host the wall time of the same request spread by a fifth or
   more between runs. Set-up is the median over request processes and
   set-up probes, the answer cost the median over rounds of the round's
   CPU time. Peak RSS
   is the median over rounds of the round's largest VmHWM: the largest
   over a whole run would follow the tail of the GC's heap-growth
   jitter. *)
let end_to_end rounds =
  let setups =
    List.concat_map
      (fun round ->
        (* A crashed request has no timings of its own; it counts in [failed]. *)
        List.filter_map
          (fun r -> if r.answers_ns = [] then None else Some r.setup_cpu_ns)
          round.replies
        @ round.probes_cpu_ns
        |> List.map (fun ns -> s_of_ns ns *. scale round))
      rounds
  in
  [
    ("setup_s", "s", median setups);
    ("cpu_s", "s", median (List.map ref_cpu_s rounds));
    ( "peak_rss_mb",
      "MiB",
      median
        (List.map
           (fun round -> max_of (fun r -> float_of_int r.vmhwm_kb /. 1024.) round.replies)
           rounds) );
  ]

(* Per-layer metrics of one traced round. Times are the self times of
   the benchmark's [bench.<layer>] spans; counts come from return
   values; rates and fractions are taken over the round's sums. *)
let round_layers round =
  let layer name = sum (fun r -> get name r.layers_ns) round /. 1e9 in
  let count name = sum (fun r -> get name r.counts) round in
  let gc name = sum (fun r -> get name r.gc) round in
  let pool name = sum (fun r -> get name r.pool) round in
  let request_s = sum (fun r -> s_of_ns r.request_ns) round in
  let expand_s = layer "expand" in
  let mc_s = count "runner.cell_s.montecarlo" in
  let cell_quantile q =
    if count "runner.busy_s" > 0. then quantile (answers_s round) q else 0.
  in
  [
    ("symmetry.quotient_s", "s", layer "quotient");
    ("symmetry.quotient_minor_mw", "Mw", count "symmetry.quotient_minor_mw");
    ("symmetry.orbits", "count", count "symmetry.orbits");
    ("checker.expand_s", "s", expand_s);
    ("checker.expand_edges_per_s", "1/s", ratio (count "checker.edges") expand_s);
    ("checker.expand_minor_mw", "Mw", count "checker.expand_minor_mw");
    ( "checker.graph_bytes_per_config",
      "B",
      ratio (count "checker.graph_bytes") (count "checker.configs") );
    ("checker.analyze_s", "s", layer "analyze");
    ("checker.fairness_s", "s", layer "fairness");
    ("checker.worst_case_s", "s", layer "worst_case");
    ("markov.of_space_s", "s", layer "of_space");
    ("markov.of_space_minor_mw", "Mw", count "markov.of_space_minor_mw");
    ( "markov.chain_bytes_per_state",
      "B",
      ratio (count "markov.chain_bytes") (count "checker.configs") );
    ("markov.prob1_s", "s", layer "prob1");
    ("markov.solve_s", "s", layer "solve");
    ("markov.solve_sweeps", "count", count "markov.solve_sweeps");
    ("markov.solve_blocks", "count", count "markov.solve_blocks");
    ( "pool.busy_frac",
      "ratio",
      ratio (pool "busy_ns" /. 1e9)
        (sum (fun r -> float_of_int r.width *. s_of_ns r.request_ns) round) );
    ("pool.tasks", "count", pool "tasks");
    ("pool.steals", "count", pool "steals");
    ("pool.splits", "count", pool "splits");
    ("runner.cell_s.check", "s", count "runner.cell_s.check");
    ("runner.cell_s.markov", "s", count "runner.cell_s.markov");
    ("runner.cell_s.montecarlo", "s", mc_s);
    ( "runner.worker_idle_frac",
      "ratio",
      let cap = count "runner.capacity_s" in
      if cap > 0. then 1. -. (count "runner.busy_s" /. cap) else 0. );
    ("runner.straggler_s", "s", max_of (fun r -> get "runner.straggler_s" r.counts) round);
    ("runner.cell_p50_s", "s", cell_quantile 0.5);
    ("runner.cell_p90_s", "s", cell_quantile 0.9);
    ("runner.cells_skipped", "count", count "runner.cells_skipped");
    ("checkpoint.load_s", "s", layer "checkpoint");
    ("checkpoint.bytes", "B", count "checkpoint.bytes");
    ("montecarlo.steps", "count", count "montecarlo.steps");
    ("montecarlo.steps_per_s", "1/s", ratio (count "montecarlo.steps") mc_s);
    ( "gc.top_heap_mb",
      "MiB",
      max_of (fun r -> get "top_heap_words" r.gc *. float_of_int (Sys.word_size / 8)) round
      /. 1048576. );
    ("gc.major_collections", "count", gc "major_collections");
    ("gc.minor_mw", "Mw", gc "minor_words" /. 1e6);
    ( "trace.span_coverage",
      "ratio",
      ratio (sum (fun r -> sum snd r.layers_ns) round /. 1e9) request_s );
  ]

(* Per-layer metrics: the median of each over the traced rounds, plus
   the tracing overhead against the untraced rounds of the same run. *)
let per_layer ~traced ~untraced =
  let per_round = List.map (fun round -> round_layers round.replies) traced in
  let medians =
    List.mapi
      (fun i (name, unit, _) ->
        (name, unit, median (List.map (fun l -> (fun (_, _, v) -> v) (List.nth l i)) per_round)))
      (List.hd per_round)
  in
  let cpu rounds = median (List.map ref_cpu_s rounds) in
  medians @ [ ("trace.overhead_frac", "ratio", (cpu traced /. cpu untraced) -. 1.) ]

(* {2 Provenance} *)

let command_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

(* Git is asked only when the working directory is itself a checkout,
   so a bench run never reads a repository it sits inside of. *)
let provenance ~seed ~want ~width ~nproc =
  let git = Sys.file_exists ".git" in
  let commit =
    if git then command_line "git rev-parse --short HEAD 2>/dev/null" else None
  in
  (* porcelain prints one line per changed path, nothing when clean *)
  let dirty =
    if git then Json.Bool (command_line "git status --porcelain 2>/dev/null" <> None)
    else Json.Null
  in
  Json.Obj
    [
      ("commit", Json.String (Option.value ~default:"unknown" commit));
      ("dirty", dirty);
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int nproc);
      ("width_requested", Json.Int want);
      ("width", Json.Int width);
      ("seed", Json.Int seed);
    ]

let metrics_json l =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       l)

(* Set-up probes per round. A workload with few, long requests would
   otherwise give [setup_s] only a handful of samples per run. *)
let setup_probes = 5

let drive w ~size ~seed ~seconds ~trace ~out ~trace_dir =
  let wname = Workload.name w in
  let nproc = Domain.recommended_domain_count () in
  let want = Workload.width w in
  (* Like [Pool.default_width], leave one core to the OS: with every
     core busy, any other runnable thread stalls a domain, and the
     stop-the-world minor collections stall the others with it. *)
  let width = max 1 (min want (nproc - 1)) in
  if width < want then
    Printf.eprintf "e2e: warning: %s asks for pool width %d, capped at %d (nproc = %d)\n%!"
      wname want width nproc;
  Option.iter
    (fun f ->
      let tracked =
        Sys.command
          (Printf.sprintf "git ls-files --error-unmatch -- %s >/dev/null 2>&1"
             (Filename.quote f))
        = 0
      in
      if tracked then die "--out %s is a tracked file; not overwriting it" f)
    out;
  Option.iter mkdir_p trace_dir;
  let work =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "_run")
      (string_of_int (Unix.getpid ()))
  in
  mkdir_p work;
  let len = Workload.round_length w in
  let request_args ~index =
    [
      "--request"; wname; "--index"; string_of_int index; "--seed"; string_of_int seed;
      "--width"; string_of_int width; "--work"; work;
    ]
    @ if size = Workload.Smoke then [ "--smoke" ] else []
  in
  let one ~index ~traced =
    let chrome =
      match trace_dir with
      | Some d when traced ->
        [ "--chrome"; Filename.concat d (Printf.sprintf "%s-%d-%d.json" wname seed index) ]
      | _ -> []
    in
    spawn ~traced ~width
      ~args:(request_args ~index @ (if traced then [ "--traced" ] else []) @ chrome)
  in
  (* A failed probe only leaves out its sample; the requests' own
     failures are what [failed] counts. *)
  let probe ~index =
    match run_child (request_args ~index @ [ "--setup-probe" ]) with
    | _, Unix.WEXITED 0, Some line -> int_of_string_opt (String.trim line)
    | _ -> None
  in
  (* In a traced run, untraced and traced rounds alternate so the same
     run measures the tracing overhead. *)
  let min_rounds = if trace then 2 else 1 in
  (* The smoke test checks answers, not speed: it skips the yardstick,
     which would be most of its time. *)
  let yardstick = if size = Workload.Smoke then Fun.const yardstick_ref_s else yardstick in
  let deadline = Obs.now_ns () + int_of_float (seconds *. 1e9) in
  let rec loop r last_ns acc =
    if r >= min_rounds && Obs.now_ns () + last_ns > deadline then List.rev acc
    else begin
      let t0 = Obs.now_ns () in
      let traced = trace && r mod 2 = 1 in
      let before = yardstick () in
      let probes =
        List.filter_map
          (fun k -> probe ~index:((r * len) + (k mod len)))
          (List.init setup_probes Fun.id)
      in
      let replies = List.init len (fun k -> one ~index:((r * len) + k) ~traced) in
      loop (r + 1) (Obs.now_ns () - t0) ((before, probes, replies) :: acc)
    end
  in
  let passes = Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> loop 0 0 []) in
  (* Each round is timed against the mean of the readings either side of
     it: the reading before the next round is this one's after. *)
  let rounds =
    let afters = List.tl (List.map (fun (y, _, _) -> y) passes) @ [ yardstick () ] in
    List.map2
      (fun (before, probes_cpu_ns, replies) after ->
        { yardstick_s = (before +. after) /. 2.; probes_cpu_ns; replies })
      passes afters
  in
  let replies = List.concat_map (fun round -> round.replies) rounds in
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 replies in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 replies in
  List.iter
    (fun r -> List.iter (fun e -> Printf.eprintf "e2e: %s: wrong answer: %s\n%!" wname e) r.errors)
    replies;
  let traced, untraced =
    List.partition (fun round -> (List.hd round.replies).traced) rounds
  in
  let metrics =
    if trace then per_layer ~traced ~untraced else end_to_end untraced
  in
  let answers = List.length (List.concat_map (fun r -> r.answers_ns) replies) in
  Printf.printf "%s rounds %d count\n%s requests %d count\n%s answers %d count\n" wname
    (List.length rounds) wname (List.length replies) wname answers;
  List.iter (fun (name, unit, v) -> Printf.printf "%s %s %.6g %s\n" wname name v unit) metrics;
  let result =
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("metrics", metrics_json metrics);
    ]
  in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          ([
             ("workload", Json.String wname);
             ("trace", Json.Bool trace);
             ("seconds", Json.Float seconds);
             ("smoke", Json.Bool (size = Workload.Smoke));
             ("provenance", provenance ~seed ~want ~width ~nproc);
             ( "samples",
               int_obj
                 [
                   ("rounds", List.length rounds);
                   ("requests", List.length replies);
                   ("answers", answers);
                 ] );
             ( "round_wall_s",
               Json.List (List.map (fun r -> Json.Float (round_wall_s r)) untraced) );
             ( "round_cpu_s",
               Json.List (List.map (fun r -> Json.Float (round_cpu_s r)) untraced) );
             ( "round_yardstick_s",
               Json.List (List.map (fun r -> Json.Float r.yardstick_s) untraced) );
           ]
          @ result)
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string ~minify:false doc);
          output_char oc '\n'))
    out;
  print_endline (Json.to_string (Json.Obj result));
  (* The smoke run is a test: a wrong answer fails it. *)
  if size = Workload.Smoke && failed > 0 then exit 1

(* {1 --agree} *)

let load_json path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

(* Bounds of the end-to-end metrics, from BENCHMARK.json. *)
let bounds path =
  match field "end_to_end" (load_json path) with
  | Some (Json.List l) ->
    List.filter_map
      (fun m ->
        match (field "name" m, Option.bind (field "bound" m) number) with
        | Some (Json.String n), Some b -> Some (n, b)
        | _ -> None)
      l
  | _ -> die "%s: no end_to_end list" path

let agree ~benchmark a b =
  let bounds = bounds benchmark in
  let side files =
    List.map
      (fun f ->
        let j = load_json f in
        match field "workload" j with
        | Some (Json.String w) -> (w, j)
        | _ -> die "%s: not a result file" f)
      (String.split_on_char ',' files)
  in
  let a = side a and b = side b in
  let nproc side =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, j) ->
           match Option.bind (field "provenance" j) (field "nproc") with
           | Some (Json.Int n) -> Some n
           | _ -> None)
         side)
  in
  if nproc a <> nproc b then
    Printf.printf
      "warning: the two sides ran with different nproc; parallel workloads are machine-shaped\n";
  let value metric j =
    match Option.bind (field "metrics" j) (field metric) with
    | Some m -> Option.bind (field "value" m) number
    | None -> None
  in
  let medians side w metric =
    List.filter_map (fun (w', j) -> if w' = w then value metric j else None) side
    |> function
    | [] -> None
    | l -> Some (median l, List.length l)
  in
  let workloads = List.sort_uniq compare (List.map fst a) in
  Printf.printf "%-22s %-15s %12s %12s %8s %6s  %s\n" "workload" "metric" "A median"
    "B median" "delta" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (metric, bound) ->
          match (medians a w metric, medians b w metric) with
          | Some (ma, na), Some (mb, nb) ->
            let delta = ratio (mb -. ma) ma in
            let ok = Float.abs delta <= bound in
            if not ok then incr bad;
            Printf.printf "%-22s %-15s %12.6g %12.6g %+7.1f%% %5.0f%%  %s (n=%d/%d)\n" w metric
              ma mb (100. *. delta) (100. *. bound)
              (if ok then "agree" else "DIFFER")
              na nb
          | _ -> ())
        bounds)
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d (workload, metric) pairs differ by more than their bound\n" !bad;
    exit 1
  end

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 2008 and seconds = ref 30. and trace = ref 0 in
  let out = ref None and trace_dir = ref None and smoke = ref false in
  let agree_with = ref None and benchmark = ref "BENCHMARK.json" in
  let request_of = ref "" and index = ref 0 and spawn_ns = ref 0 and width = ref 1 in
  let work = ref "." and traced = ref false and chrome = ref None in
  let probe = ref false in
  let some r = Arg.String (fun s -> r := Some s) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 2008)");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1: per-layer traced run");
      ("--out", some out, "FILE write the full result here (refuses a git-tracked file)");
      ("--trace-dir", some trace_dir, "DIR write a Chrome trace per traced request");
      ("--smoke", Arg.Set smoke, " small instances (the dune runtest smoke test)");
      ( "--agree",
        Arg.Tuple
          [
            Arg.String (fun a -> agree_with := Some (a, ""));
            Arg.String (fun b -> agree_with := Option.map (fun (a, _) -> (a, b)) !agree_with);
          ],
        "A[,A..] B[,B..] compare two sets of --out files against the bounds" );
      ("--benchmark", Arg.Set_string benchmark, "FILE bounds for --agree");
      ("--request", Arg.Set_string request_of, "NAME (internal) run one request");
      ("--index", Arg.Set_int index, "I (internal)");
      ("--spawn-ns", Arg.Set_int spawn_ns, "T (internal)");
      ("--width", Arg.Set_int width, "W (internal)");
      ("--work", Arg.Set_string work, "DIR (internal)");
      ("--traced", Arg.Set traced, " (internal)");
      ("--chrome", some chrome, "FILE (internal)");
      ("--setup-probe", Arg.Set probe, " (internal) stop at the first layer call");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1 | --agree A B";
  let size = if !smoke then Workload.Smoke else Workload.Full in
  let workload_of name =
    match Workload.of_name name with
    | Some w -> w
    | None ->
      die "unknown workload %S (known: %s)" name
        (String.concat ", " (List.map Workload.name Workload.all))
  in
  match (!agree_with, !request_of) with
  | Some (a, b), _ -> agree ~benchmark:!benchmark a b
  | None, r when r <> "" ->
    let ctx =
      {
        Workload.size;
        seed = !seed;
        index = !index;
        width = !width;
        work = !work;
        traced = !traced;
        counts = [];
        answers_ns = [];
        attempted = 0;
        failed = 0;
        errors = [];
      }
    in
    if !probe then setup_probe (workload_of r) ctx
    else request (workload_of r) ctx ~spawn_ns:!spawn_ns ~chrome:!chrome
  | None, _ ->
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    drive (workload_of !workload) ~size ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~out:!out ~trace_dir:!trace_dir
