(* Tests for the telemetry core: counter semantics under domains, span
   nesting and exception safety, JSONL round-trips through the shared
   JSON emitter, and the guarantee that uninstalled telemetry stays off
   the allocation path. *)

module Obs = Stabobs.Obs
module Json = Stabobs.Json
module Dist = Stabobs.Dist

(* Every test leaves the global sink stack empty; telemetry state is
   process-global and the rest of the suite expects it dark. *)
let with_sink sink f = Obs.install sink; Fun.protect ~finally:Obs.clear f

let test_counter_monotonic () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.Counter.reset_all ();
      let c = Obs.configs_expanded in
      Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
      Obs.Counter.add c 3;
      Obs.Counter.incr c;
      Alcotest.(check int) "accumulates" 4 (Obs.Counter.value c);
      Obs.Counter.add c 0;
      Alcotest.(check int) "add 0 is a no-op" 4 (Obs.Counter.value c);
      let snapshot = Obs.Counter.snapshot () in
      Alcotest.(check (option int))
        "snapshot carries the total" (Some 4)
        (List.assoc_opt "configs_expanded" snapshot));
  Obs.Counter.reset_all ()

let test_counter_merges_across_domains () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.Counter.reset_all ();
      let c = Obs.montecarlo_runs in
      let worker () =
        for _ = 1 to 1_000 do
          Obs.Counter.incr c
        done
      in
      let spawned = List.init 4 (fun _ -> Domain.spawn worker) in
      Obs.Counter.incr c;
      List.iter Domain.join spawned;
      (* Four dead domains' cells plus the main domain's must all
         survive into the merged value. *)
      Alcotest.(check int) "per-domain cells merge" 4_001 (Obs.Counter.value c));
  Obs.Counter.reset_all ()

let test_counter_dark_when_no_sink () =
  Obs.clear ();
  Obs.Counter.reset_all ();
  Obs.Counter.add Obs.configs_expanded 42;
  Alcotest.(check int)
    "adds are dropped with no sink installed" 0
    (Obs.Counter.value Obs.configs_expanded)

let span_name = function
  | Obs.Span_begin { name; _ } -> "begin:" ^ name
  | Obs.Span_end { name; _ } -> "end:" ^ name
  | Obs.Message _ -> "message"

let test_span_nesting_order () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      let r = Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 7)) in
      Alcotest.(check int) "span returns the body's value" 7 r);
  let names = List.map span_name (events ()) in
  Alcotest.(check (list string))
    "events bracket properly"
    [ "begin:outer"; "begin:inner"; "end:inner"; "end:outer" ]
    names;
  let durs =
    List.filter_map
      (function Obs.Span_end { name; dur; _ } -> Some (name, dur) | _ -> None)
      (events ())
  in
  let inner = List.assoc "inner" durs and outer = List.assoc "outer" durs in
  Alcotest.(check bool) "inner duration within outer" true (0 <= inner && inner <= outer)

let test_span_survives_exceptions () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      match Obs.span "doomed" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "span swallowed the exception"
      | exception Failure _ -> ());
  Alcotest.(check (list string))
    "end event emitted despite the raise"
    [ "begin:doomed"; "end:doomed" ]
    (List.map span_name (events ()))

let test_span_end_carries_counters () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.Counter.reset_all ();
      Obs.span "work" (fun () -> Obs.Counter.add Obs.transitions_emitted 11));
  (match events () with
  | [ Obs.Span_begin _; Obs.Span_end { counters; _ } ] ->
    Alcotest.(check (option int))
      "snapshot taken at span close" (Some 11)
      (List.assoc_opt "transitions_emitted" counters)
  | _ -> Alcotest.fail "expected exactly one begin/end pair");
  Obs.Counter.reset_all ()

let test_jsonl_round_trip () =
  let path = Filename.temp_file "stabsim-jsonl" ".jsonl" in
  let sink = Obs.jsonl_channel (open_out path) in
  with_sink sink (fun () ->
      Obs.Counter.reset_all ();
      Obs.span "phase" ~args:[ ("k", Json.Int 2) ] (fun () ->
          Obs.Counter.add Obs.fault_injections 5);
      Obs.set_level Obs.Warn;
      Obs.warnf "warning: %s" "with \"quotes\" and \xe2\x86\x92 utf8");
  Obs.Counter.reset_all ();
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  Alcotest.(check int) "begin + end + message" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "unparseable JSONL line %S: %s" line e
      | Ok v ->
        Alcotest.(check string) "compact re-serialization is identity" line
          (Json.to_string v))
    lines;
  let types =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok v -> (
          match Json.member "type" v with Some (Json.String s) -> s | _ -> "?")
        | Error _ -> "?")
      lines
  in
  Alcotest.(check (list string))
    "event types" [ "span_begin"; "span_end"; "message" ] types

let test_message_levels () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.set_level Obs.Warn;
      Obs.infof "suppressed %d" 1;
      Obs.warnf "kept";
      Obs.set_level Obs.Quiet;
      Obs.warnf "silenced";
      Obs.errorf "silenced too";
      Obs.set_level Obs.Warn);
  let texts =
    List.filter_map
      (function Obs.Message { text; _ } -> Some text | _ -> None)
      (events ())
  in
  Alcotest.(check (list string)) "only passing levels emit" [ "kept" ] texts

let dark_alloc_dist = Dist.make "test.dark-alloc"
let dark_alloc_gauge = Stabobs.Registry.Gauge.make "test.dark-alloc"

let test_disabled_path_allocates_nothing () =
  Obs.clear ();
  (* The flight recorder's disabled path too. *)
  let flight_was = Stabobs.Flight.enabled () in
  Stabobs.Flight.reset_for_tests ();
  (* GC sampling on: the mode flag alone must not light anything up —
     only a sink does. *)
  Obs.set_gc_sampling true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_gc_sampling false;
      if flight_was then Stabobs.Flight.enable ())
    (fun () ->
      let body = ignore in
      (* Warm every path once so any one-time setup is off the meter. *)
      Obs.span "warmup" body;
      Obs.Counter.add Obs.engine_steps 1;
      Dist.record dark_alloc_dist 1.0;
      Dist.record_int dark_alloc_dist 1;
      Stabobs.Registry.Gauge.set dark_alloc_gauge 1;
      Stabobs.Flight.note "warmup";
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Obs.span "dark" body;
        Obs.Counter.add Obs.engine_steps 1;
        Dist.record dark_alloc_dist 1.0;
        Dist.record_int dark_alloc_dist 1;
        Stabobs.Registry.Gauge.set dark_alloc_gauge 1;
        Stabobs.Flight.note "dark"
      done;
      let delta = Gc.minor_words () -. before in
      (* The loop itself must not allocate; leave a few words of slack
         for the Gc.minor_words probes themselves. *)
      Alcotest.(check bool)
        (Printf.sprintf "dark instrumentation allocates nothing (%.0f words)" delta)
        true (delta < 256.0);
      Alcotest.(check int) "dark records are dropped" 0 (Dist.count dark_alloc_dist))

let test_profile_aggregates () =
  let p = Obs.Profile.create () in
  with_sink (Obs.Profile.sink p) (fun () ->
      Obs.span "repeat" (fun () -> ());
      Obs.span "repeat" (fun () -> ());
      Obs.span "once" (fun () -> ()));
  let rows = Obs.Profile.rows p in
  let row name =
    List.find (fun (r : Obs.Profile.row) -> r.Obs.Profile.name = name) rows
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  Alcotest.(check int) "repeat count" 2 (row "repeat").Obs.Profile.count;
  Alcotest.(check int) "once count" 1 (row "once").Obs.Profile.count;
  Alcotest.(check bool) "max <= total" true
    ((row "repeat").Obs.Profile.max_ns <= (row "repeat").Obs.Profile.total_ns);
  Alcotest.(check bool) "wall clock spans the run" true (Obs.Profile.wall_ns p >= 0)

(* --- distribution metrics --- *)

let welford_dist = Dist.make "test.welford"
let edge_dist_empty = Dist.make "test.edge-empty"
let edge_dist_single = Dist.make "test.edge-single"
let edge_dist_const = Dist.make "test.edge-const"
let merge_dist = Dist.make "test.merge"

let test_dist_matches_stats () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Dist.reset_all ();
      (* An awkward mix: negatives, duplicates, large spread. *)
      let xs = [| 3.5; -2.0; 10.0; 3.5; 0.25; 100.0; -2.0; 7.0; 1.0; 42.0 |] in
      Array.iter (Dist.record welford_dist) xs;
      let expect = Stabstats.Stats.summarize xs in
      match Dist.summary welford_dist with
      | None -> Alcotest.fail "summary after 10 records"
      | Some s ->
        Alcotest.(check int) "count" expect.Stabstats.Stats.count s.Dist.count;
        Alcotest.(check (float 1e-9)) "mean = batch mean"
          expect.Stabstats.Stats.mean s.Dist.mean;
        Alcotest.(check (float 1e-9)) "stddev = batch stddev"
          expect.Stabstats.Stats.stddev s.Dist.stddev;
        Alcotest.(check (float 0.0)) "min" expect.Stabstats.Stats.min s.Dist.min;
        Alcotest.(check (float 0.0)) "max" expect.Stabstats.Stats.max s.Dist.max;
        List.iter
          (fun (q, v) ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "quantile %.2f matches Stats.quantile" q)
              (Stabstats.Stats.quantile xs q) v)
          [ (0.5, s.Dist.p50); (0.95, s.Dist.p95); (0.99, s.Dist.p99) ]);
  Dist.reset_all ()

let test_dist_quantile_edges () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Dist.reset_all ();
      (* Empty: no summary. *)
      Alcotest.(check bool) "empty has no summary" true
        (Dist.summary edge_dist_empty = None);
      Alcotest.(check bool) "empty dist not in snapshot" true
        (List.assoc_opt "test.edge-empty" (Dist.snapshot ()) = None);
      (* Singleton: every quantile is the sample, stddev 0. *)
      Dist.record edge_dist_single 7.5;
      (match Dist.summary edge_dist_single with
      | None -> Alcotest.fail "singleton summary"
      | Some s ->
        Alcotest.(check (float 0.0)) "singleton p50" 7.5 s.Dist.p50;
        Alcotest.(check (float 0.0)) "singleton p99" 7.5 s.Dist.p99;
        Alcotest.(check (float 0.0)) "singleton stddev" 0.0 s.Dist.stddev);
      (* Constant stream: zero spread, quantiles at the constant. *)
      for _ = 1 to 100 do
        Dist.record edge_dist_const 3.0
      done;
      match Dist.summary edge_dist_const with
      | None -> Alcotest.fail "constant summary"
      | Some s ->
        Alcotest.(check int) "constant count" 100 s.Dist.count;
        Alcotest.(check (float 0.0)) "constant stddev" 0.0 s.Dist.stddev;
        Alcotest.(check (float 0.0)) "constant p95" 3.0 s.Dist.p95);
  Dist.reset_all ()

let test_dist_merges_across_domains () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Dist.reset_all ();
      (* Workers record disjoint slices of 1..400; the merged moments
         and quantiles must equal the single-array reference. *)
      let worker lo () =
        for i = lo to lo + 99 do
          Dist.record_int merge_dist i
        done
      in
      let spawned = List.map (fun lo -> Domain.spawn (worker lo)) [ 101; 201; 301 ] in
      worker 1 ();
      List.iter Domain.join spawned;
      let xs = Array.init 400 (fun i -> float_of_int (i + 1)) in
      let expect = Stabstats.Stats.summarize xs in
      match Dist.summary merge_dist with
      | None -> Alcotest.fail "merged summary"
      | Some s ->
        Alcotest.(check int) "all samples merged" 400 s.Dist.count;
        Alcotest.(check (float 1e-9)) "merged mean" expect.Stabstats.Stats.mean
          s.Dist.mean;
        Alcotest.(check (float 1e-9)) "merged stddev"
          expect.Stabstats.Stats.stddev s.Dist.stddev;
        Alcotest.(check (float 1e-9)) "merged p50"
          (Stabstats.Stats.quantile xs 0.5)
          s.Dist.p50);
  Dist.reset_all ()

(* --- GC observability --- *)

let find_span_end name events =
  List.find_map
    (function
      | Obs.Span_end { name = n; gc; _ } when n = name -> Some gc | _ -> None)
    events

let test_span_gc_delta () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.set_gc_sampling true;
      Fun.protect ~finally:(fun () -> Obs.set_gc_sampling false) (fun () ->
          Obs.Counter.reset_all ();
          Obs.span "alloc" (fun () ->
              (* ~1.1M minor words of garbage: small blocks, so they
                 stay under Max_young_wosize and hit the minor heap. *)
              for _ = 1 to 100_000 do
                ignore (Sys.opaque_identity (Array.make 10 0.0))
              done);
          Obs.span "lean" ignore));
  (match find_span_end "alloc" (events ()) with
  | Some (Some g) ->
    Alcotest.(check bool)
      (Printf.sprintf "allocating span reports minor words (%d)" g.Obs.minor_words)
      true
      (g.Obs.minor_words > 900_000);
    Alcotest.(check bool) "alloc_bytes positive" true (g.Obs.alloc_bytes > 0)
  | Some None -> Alcotest.fail "gc sampling on but span carries no delta"
  | None -> Alcotest.fail "alloc span not captured");
  (match find_span_end "lean" (events ()) with
  | Some (Some g) ->
    Alcotest.(check bool)
      (Printf.sprintf "lean span reports almost nothing (%d words)" g.Obs.minor_words)
      true
      (g.Obs.minor_words < 10_000)
  | Some None -> Alcotest.fail "gc sampling on but lean span carries no delta"
  | None -> Alcotest.fail "lean span not captured");
  Obs.Counter.reset_all ()

let test_span_gc_off_by_default () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.span "plain" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0.0))));
  match find_span_end "plain" (events ()) with
  | Some None -> ()
  | Some (Some _) -> Alcotest.fail "span sampled the GC without set_gc_sampling"
  | None -> Alcotest.fail "plain span not captured"

let test_gc_counters_accumulate () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.set_gc_sampling true;
      Fun.protect ~finally:(fun () -> Obs.set_gc_sampling false) (fun () ->
          Obs.Counter.reset_all ();
          Obs.span "alloc" (fun () ->
              for _ = 1 to 100_000 do
                ignore (Sys.opaque_identity (Array.make 10 0.0))
              done);
          Alcotest.(check bool)
            "gc.minor_words counter ticks" true
            (List.assoc "gc.minor_words" (Obs.Counter.snapshot ()) > 900_000)));
  Obs.Counter.reset_all ()

let test_dist_profile_capture_in_pipeline () =
  (* The wired-in recorders: running the engine under a sink must
     populate engine.run.steps with exactly one sample per run. *)
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Dist.reset_all ();
      let p = Stabalgo.Token_ring.make ~n:5 in
      let spec = Stabalgo.Token_ring.spec ~n:5 in
      ignore
        (Stabcore.Montecarlo.estimate ~runs:20 ~max_steps:100_000
           (Stabrng.Rng.create 7) p
           Stabcore.Scheduler.central_random spec);
      Alcotest.(check int) "one sample per run" 20 (Dist.count Dist.engine_run_steps);
      let space = Stabcore.Statespace.build p in
      ignore (Stabcore.Checker.analyze space Stabcore.Statespace.Central spec);
      Alcotest.(check int)
        "one out-degree sample per packed configuration"
        (Stabcore.Statespace.count space)
        (Dist.count Dist.checker_out_degree));
  Dist.reset_all ()

(* --- registry: gauges, labels, snapshots --- *)

module Registry = Stabobs.Registry

let g_test = Registry.Gauge.make "test.gauge"
let l_test = Registry.Label.make "test.label"
let l_unset = Registry.Label.make "test.label.unset"

(* The registry snapshot's reading of a gauge or label. *)
let gauge name = List.assoc_opt name (Registry.snapshot ()).Registry.gauges
let label name = List.assoc_opt name (Registry.snapshot ()).Registry.labels

let test_gauge_basics () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Registry.Gauge.set g_test 7;
      Alcotest.(check (option int)) "set" (Some 7) (gauge "test.gauge");
      Registry.Gauge.add g_test 5;
      Registry.Gauge.add g_test (-2);
      Alcotest.(check (option int)) "add up and down" (Some 10) (gauge "test.gauge");
      Registry.Label.set l_test "hello";
      Alcotest.(check (option string)) "label set" (Some "hello") (label "test.label");
      Alcotest.(check bool) "never-set label stays out of the snapshot" true
        (label "test.label.unset" = None))

let test_gauge_dark_without_sink () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Registry.Gauge.set g_test 5;
      Registry.Label.set l_test "kept");
  Obs.clear ();
  Registry.Gauge.set g_test 42;
  Registry.Gauge.add g_test 42;
  Registry.Label.set l_test "dropped";
  Registry.Label.set l_unset "dropped";
  Alcotest.(check (option int)) "gauge writes dropped when dark" (Some 5)
    (gauge "test.gauge");
  Alcotest.(check (option string)) "label writes dropped when dark" (Some "kept")
    (label "test.label");
  Alcotest.(check bool) "dark label never enters the snapshot" true
    (label "test.label.unset" = None)

let hammer_gauge = Registry.Gauge.make "test.hammer.gauge"
let hammer_counter = Obs.Counter.make "test.hammer.counter"

let test_snapshot_consistency_under_domains () =
  (* Four domains hammer a gauge and a counter while the main domain
     snapshots repeatedly. Two invariants: the gauge value is always one
     that some writer actually wrote (never a torn mix), and a counter
     incremented with non-negative amounts never decreases between
     snapshots. *)
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.Counter.reset_all ();
      Registry.Gauge.set hammer_gauge 0;
      let stop = Atomic.make false in
      (* Writers only ever store 10^k: any torn read would produce a
         value outside this set. *)
      let legal = [ 0; 1; 10; 100; 1000 ] in
      let worker k () =
        while not (Atomic.get stop) do
          Registry.Gauge.set hammer_gauge k;
          Obs.Counter.incr hammer_counter
        done
      in
      let spawned =
        List.map (fun k -> Domain.spawn (worker k)) [ 1; 10; 100; 1000 ]
      in
      let prev_counter = ref 0 in
      for _ = 1 to 2_000 do
        let s = Registry.snapshot () in
        let g =
          Option.value ~default:0
            (List.assoc_opt "test.hammer.gauge" s.Registry.gauges)
        in
        if not (List.mem g legal) then
          Alcotest.failf "torn gauge read: %d" g;
        let c =
          Option.value ~default:0
            (List.assoc_opt "test.hammer.counter" s.Registry.counters)
        in
        if c < !prev_counter then
          Alcotest.failf "counter went backwards: %d after %d" c !prev_counter;
        prev_counter := c
      done;
      Atomic.set stop true;
      List.iter Domain.join spawned;
      Alcotest.(check bool) "writers made progress" true (!prev_counter > 0));
  Obs.Counter.reset_all ()

let test_snapshot_json_shape () =
  let sink, _ = Obs.memory_sink () in
  with_sink sink (fun () ->
      Registry.Gauge.set g_test 3;
      let j = Registry.snapshot_json (Registry.snapshot ()) in
      (* The document must round-trip through the serializer and keep
         the four sections. *)
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "snapshot_json does not round-trip: %s" e
      | Ok v ->
        List.iter
          (fun k ->
            match Json.member k v with
            | Some (Json.Obj _) -> ()
            | _ -> Alcotest.failf "missing or non-object section %S" k)
          [ "counters"; "gauges"; "labels"; "dists" ])

(* --- ambient span tags --- *)

let args_of name events =
  List.filter_map
    (function
      | Obs.Span_begin { name = n; args; _ } when n = name -> Some args
      | _ -> None)
    events

let test_with_tags () =
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () ->
      Obs.with_tags [ ("cell", Json.String "c1") ] (fun () ->
          Obs.span "tagged" ~args:[ ("own", Json.Int 1) ] (fun () ->
              Obs.with_tags [ ("worker", Json.Int 3) ] (fun () ->
                  Obs.span "nested" (fun () -> ()))));
      Obs.span "after" (fun () -> ()));
  let events = events () in
  (match args_of "tagged" events with
  | [ args ] ->
    Alcotest.(check bool) "own args kept" true
      (List.assoc_opt "own" args = Some (Json.Int 1));
    Alcotest.(check bool) "ambient tag appended" true
      (List.assoc_opt "cell" args = Some (Json.String "c1"))
  | _ -> Alcotest.fail "expected one tagged begin");
  (match args_of "nested" events with
  | [ args ] ->
    Alcotest.(check bool) "outer tag inherited" true
      (List.assoc_opt "cell" args = Some (Json.String "c1"));
    Alcotest.(check bool) "inner tag accumulated" true
      (List.assoc_opt "worker" args = Some (Json.Int 3))
  | _ -> Alcotest.fail "expected one nested begin");
  (match args_of "after" events with
  | [ args ] -> Alcotest.(check bool) "tags restored on exit" true (args = [])
  | _ -> Alcotest.fail "expected one after begin");
  (* End events carry the tags too. *)
  let end_args =
    List.filter_map
      (function
        | Obs.Span_end { name = "tagged"; args; _ } -> Some args | _ -> None)
      events
  in
  match end_args with
  | [ args ] ->
    Alcotest.(check bool) "end event tagged" true
      (List.assoc_opt "cell" args = Some (Json.String "c1"))
  | _ -> Alcotest.fail "expected one tagged end"

let test_with_tags_dark () =
  Obs.clear ();
  let r = Obs.with_tags [ ("k", Json.Int 1) ] (fun () -> 5) in
  Alcotest.(check int) "dark with_tags is just the body" 5 r;
  let sink, events = Obs.memory_sink () in
  with_sink sink (fun () -> Obs.span "after" ignore);
  Alcotest.(check bool) "no tags retained" true
    (List.for_all
       (function Obs.Span_begin { args; _ } | Obs.Span_end { args; _ } -> args = [] | _ -> true)
       (events ()))

(* --- Chrome trace per-Domain lanes --- *)

let test_chrome_domain_metadata () =
  let path = Filename.temp_file "stabsim-chrome" ".json" in
  with_sink
    (Obs.chrome_channel (open_out path))
    (fun () ->
      Obs.span "main.work" (fun () -> ());
      let d =
        Domain.spawn (fun () -> Obs.span "worker.work" (fun () -> ()))
      in
      Domain.join d);
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.of_string raw with
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  | Ok doc -> (
    match Json.member "traceEvents" doc with
    | Some (Json.List events) ->
      let meta name =
        List.filter
          (fun e -> Json.member "name" e = Some (Json.String name))
          events
      in
      (match meta "process_name" with
      | [ e ] ->
        Alcotest.(check bool) "process named stabsim" true
          (match Json.member "args" e with
          | Some args ->
            Json.member "name" args = Some (Json.String "stabsim")
          | None -> false)
      | l -> Alcotest.failf "expected 1 process_name record, got %d" (List.length l));
      let thread_names = meta "thread_name" in
      let tids =
        List.sort_uniq compare
          (List.filter_map (fun e -> Json.member "tid" e) thread_names)
      in
      Alcotest.(check int) "one thread_name per domain" 2 (List.length tids);
      Alcotest.(check int) "no duplicate thread_name records" 2
        (List.length thread_names);
      (* Every span event's tid has a thread_name record. *)
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.String "X") ->
            Alcotest.(check bool) "span tid has metadata" true
              (match Json.member "tid" e with
              | Some t -> List.mem t tids
              | None -> false)
          | _ -> ())
        events
    | _ -> Alcotest.fail "no traceEvents array"));
  Sys.remove path

let test_json_parser () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "%s" e in
  (match ok {|{"a":[1,2.5,"x\n",true,null],"b":{"c":-3}}|} with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float f; Json.String "x\n"; Json.Bool true; Json.Null ]); ("b", Json.Obj [ ("c", Json.Int (-3)) ]) ] ->
    Alcotest.(check (float 1e-12)) "float field" 2.5 f
  | _ -> Alcotest.fail "unexpected parse shape");
  (match ok {|"é→"|} with
  | Json.String s -> Alcotest.(check string) "unicode escapes decode to UTF-8" "\xc3\xa9\xe2\x86\x92" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.of_string "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated document must not parse");
  (* Non-finite floats degrade to null rather than emitting invalid JSON. *)
  Alcotest.(check string) "nan renders as null" "null" (Json.to_string (Json.Float Float.nan));
  let v = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]) ] in
  Alcotest.(check string)
    "pretty and compact agree after a round-trip"
    (Json.to_string v)
    (match Json.of_string (Json.to_string ~minify:false v) with
    | Ok w -> Json.to_string w
    | Error e -> Alcotest.failf "pretty output unparseable: %s" e)

let suite =
  [
    Alcotest.test_case "counter is monotonic" `Quick test_counter_monotonic;
    Alcotest.test_case "counter merges across domains" `Quick
      test_counter_merges_across_domains;
    Alcotest.test_case "counter dark without sinks" `Quick test_counter_dark_when_no_sink;
    Alcotest.test_case "span nesting order" `Quick test_span_nesting_order;
    Alcotest.test_case "span survives exceptions" `Quick test_span_survives_exceptions;
    Alcotest.test_case "span end carries counters" `Quick test_span_end_carries_counters;
    Alcotest.test_case "jsonl lines round-trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "message level filtering" `Quick test_message_levels;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_allocates_nothing;
    Alcotest.test_case "profile aggregates spans" `Quick test_profile_aggregates;
    Alcotest.test_case "dist matches batch statistics" `Quick test_dist_matches_stats;
    Alcotest.test_case "dist quantile edge cases" `Quick test_dist_quantile_edges;
    Alcotest.test_case "dist merges across domains" `Quick
      test_dist_merges_across_domains;
    Alcotest.test_case "span gc delta when sampling" `Quick test_span_gc_delta;
    Alcotest.test_case "span gc off by default" `Quick test_span_gc_off_by_default;
    Alcotest.test_case "gc counters accumulate" `Quick test_gc_counters_accumulate;
    Alcotest.test_case "pipeline dists populate" `Quick
      test_dist_profile_capture_in_pipeline;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "gauge and label basics" `Quick test_gauge_basics;
    Alcotest.test_case "gauge dark without sink" `Quick
      test_gauge_dark_without_sink;
    Alcotest.test_case "snapshots never tear under domains" `Quick
      test_snapshot_consistency_under_domains;
    Alcotest.test_case "snapshot json shape" `Quick test_snapshot_json_shape;
    Alcotest.test_case "ambient span tags" `Quick test_with_tags;
    Alcotest.test_case "with_tags dark path" `Quick test_with_tags_dark;
    Alcotest.test_case "chrome per-domain lane metadata" `Quick
      test_chrome_domain_metadata;
  ]
