(* Tests for the flight recorder and its post-mortem reader: ring
   recording semantics (dark no-op, sinkless capture, wrap, multi-domain
   merge), the dump artifact round-tripping through Doctor, the
   crash-exit pending plumbing, the non-mutating Cancel observers the
   campaign dump section relies on, and the doctor heuristics on a
   hand-built dump. The full pipeline — a real campaign SIGKILLed
   mid-run leaving a parseable dump — is exercised against a child
   process (flight_child.ml). *)

module Obs = Stabobs.Obs
module Flight = Stabobs.Flight
module Json = Stabobs.Json
module Cancel = Stabcore.Cancel
module Doctor = Stabcampaign.Doctor

(* Every test starts dark and empty and leaves the recorder off, so
   suite order never matters. *)
let fresh f =
  Obs.clear ();
  Flight.reset_for_tests ();
  Fun.protect
    ~finally:(fun () ->
      Flight.reset_for_tests ();
      Obs.clear ())
    f

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Write a dump to a scratch file and read it back as the doctor does. *)
let dump_and_load ~reason =
  let path = Filename.temp_file "stabsim-flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Flight.dump_to ~reason path;
      Doctor.load path)

let message_texts events =
  List.filter_map
    (function Obs.Message { text; _ } -> Some text | _ -> None)
    events

let test_counter = Obs.Counter.make "flight.test.counter"

let test_disabled_is_noop () =
  fresh (fun () ->
      Alcotest.(check bool) "dark" false (Obs.hot ());
      Flight.note "should vanish";
      let v0 = Obs.Counter.value test_counter in
      Obs.Counter.add test_counter 7;
      Alcotest.(check int) "counter dark" v0 (Obs.Counter.value test_counter);
      Alcotest.(check (list string)) "ring empty" []
        (message_texts (Flight.events ())))

let test_enable_lights_hot () =
  fresh (fun () ->
      Flight.enable ();
      Alcotest.(check bool) "hot" true (Obs.hot ());
      Alcotest.(check bool) "but not on (no sink)" false (Obs.on ());
      let v0 = Obs.Counter.value test_counter in
      Obs.Counter.add test_counter 5;
      Alcotest.(check int) "counter accumulates sinkless" (v0 + 5)
        (Obs.Counter.value test_counter);
      Flight.note "breadcrumb";
      Alcotest.(check (list string))
        "note recorded" [ "breadcrumb" ]
        (message_texts (Flight.events ())))

let test_note_bypasses_level () =
  fresh (fun () ->
      Flight.enable ();
      Obs.set_level Obs.Quiet;
      Fun.protect
        ~finally:(fun () -> Obs.set_level Obs.Warn)
        (fun () -> Flight.note "under quiet");
      Alcotest.(check (list string))
        "recorded despite Quiet" [ "under quiet" ]
        (message_texts (Flight.events ())))

let test_spans_captured_sinkless () =
  fresh (fun () ->
      Flight.enable ();
      Obs.with_tags
        [ ("cell", Json.String "ring:4/check") ]
        (fun () ->
          Obs.span "flight.test.span"
            ~args:[ ("k", Json.Int 1) ]
            (fun () -> Flight.note "inside"));
      let events = Flight.events () in
      let begin_args =
        List.find_map
          (function
            | Obs.Span_begin { name = "flight.test.span"; args; _ } ->
              Some args
            | _ -> None)
          events
      in
      (match begin_args with
      | None -> Alcotest.fail "no Span_begin recorded"
      | Some args ->
        Alcotest.(check bool) "explicit arg present" true
          (List.mem_assoc "k" args);
        Alcotest.(check bool) "ambient tag appended" true
          (List.mem_assoc "cell" args));
      match
        List.find_map
          (function
            | Obs.Span_end { name = "flight.test.span"; counters; _ } ->
              Some counters
            | _ -> None)
          events
      with
      | None -> Alcotest.fail "no Span_end recorded"
      | Some counters ->
        (* Flight-only spans must skip the registry-walking counter
           snapshot — that retention stays gated on a sink. *)
        Alcotest.(check int) "no counter snapshot sinkless" 0
          (List.length counters))

let test_ring_wraps () =
  fresh (fun () ->
      (* capacity sizes rings created from now on, so record from a
         fresh domain whose DLS cell does not exist yet. *)
      Flight.enable ~capacity:16 ();
      Fun.protect
        ~finally:(fun () -> Flight.enable ~capacity:512 ())
        (fun () ->
          Domain.join
            (Domain.spawn (fun () ->
                 for i = 0 to 39 do
                   Flight.notef "wrap-%d" i
                 done));
          let texts =
            message_texts (Flight.events ())
            |> List.filter (fun t -> String.length t > 5
                                     && String.sub t 0 5 = "wrap-")
          in
          Alcotest.(check int) "ring kept exactly its capacity" 16
            (List.length texts);
          Alcotest.(check bool) "oldest survivor is cursor - capacity" true
            (List.mem "wrap-24" texts);
          Alcotest.(check bool) "newest survived" true
            (List.mem "wrap-39" texts);
          Alcotest.(check bool) "evicted head is gone" false
            (List.mem "wrap-0" texts)))

let test_multi_domain_merge () =
  fresh (fun () ->
      Flight.enable ();
      Flight.note "from-parent";
      let spawn tag =
        Domain.spawn (fun () ->
            Flight.notef "from-%s" tag;
            Obs.self_id ())
      in
      let a = spawn "a" and b = spawn "b" in
      let ida = Domain.join a and idb = Domain.join b in
      let ds =
        List.filter_map
          (function Obs.Message { domain; _ } -> Some domain | _ -> None)
          (Flight.events ())
      in
      Alcotest.(check bool) "domain a's ring merged" true (List.mem ida ds);
      Alcotest.(check bool) "domain b's ring merged" true (List.mem idb ds);
      Alcotest.(check bool) "parent recorded too" true
        (List.mem (Obs.self_id ()) ds);
      let texts = message_texts (Flight.events ()) in
      List.iter
        (fun t ->
          Alcotest.(check bool) ("merged " ^ t) true (List.mem t texts))
        [ "from-parent"; "from-a"; "from-b" ])

let test_dump_roundtrip () =
  fresh (fun () ->
      Flight.enable ();
      Flight.add_section "flight-test-ok" (fun () ->
          Json.Obj [ ("x", Json.Int 1) ]);
      Flight.add_section "flight-test-boom" (fun () -> failwith "boom");
      Fun.protect
        ~finally:(fun () ->
          (* providers have no unregister: neutralize them so later
             dumps in this process stay clean *)
          Flight.add_section "flight-test-ok" (fun () -> Json.Null);
          Flight.add_section "flight-test-boom" (fun () -> Json.Null))
        (fun () ->
          Obs.span "flight.test.open" (fun () -> Flight.note "pre-dump");
          match dump_and_load ~reason:"unit round-trip" with
          | Error e -> Alcotest.failf "dump does not parse: %s" e
          | Ok t ->
            Alcotest.(check (option string))
              "reason preserved" (Some "unit round-trip")
              (match Json.member "reason" t.Doctor.header with
              | Some (Json.String s) -> Some s
              | _ -> None);
            Alcotest.(check bool) "ok section present" true
              (List.assoc_opt "flight-test-ok" t.Doctor.sections
              = Some (Json.Obj [ ("x", Json.Int 1) ]));
            (match List.assoc_opt "flight-test-boom" t.Doctor.sections with
            | Some (Json.Obj [ ("error", Json.String e) ]) ->
              Alcotest.(check bool) "provider exception captured" true
                (String.length e > 0)
            | _ -> Alcotest.fail "raising provider did not yield an error payload");
            Alcotest.(check bool) "registry snapshot present" true
              (t.Doctor.registry <> None);
            Alcotest.(check bool) "events survived" true
              (t.Doctor.events <> []);
            let rendered = Doctor.render t in
            Alcotest.(check bool) "render names the reason" true
              (String.length rendered > 0
              &&
              let sub = "flight dump: unit round-trip" in
              String.length rendered >= String.length sub
              && String.sub rendered 0 (String.length sub) = sub)))

let test_dump_to_file_and_load () =
  fresh (fun () ->
      Flight.enable ();
      Flight.note "on-disk";
      let path = Filename.temp_file "stabsim-flight" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Flight.dump_to ~reason:"file round-trip" path;
          match Doctor.load path with
          | Error e -> Alcotest.failf "load failed: %s" e
          | Ok t ->
            Alcotest.(check bool) "breadcrumb survived the disk" true
              (List.exists
                 (fun e ->
                   Json.member "text" e = Some (Json.String "on-disk"))
                 t.Doctor.events)))

let test_open_spans_at_dump () =
  fresh (fun () ->
      Flight.enable ();
      let parsed =
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> dump_and_load ~reason:"mid-span"))
      in
      match parsed with
      | Error e -> Alcotest.failf "dump does not parse: %s" e
      | Ok t -> (
        let lines = String.split_on_char '\n' (Doctor.render t) in
        match List.filter (fun l -> contains l " (open ") lines with
        | [ line ] ->
          Alcotest.(check bool) "open stack outermost first" true
            (contains line "outer (open " && contains line " > inner (open ")
        | lines ->
          Alcotest.failf "expected one domain with open spans, got %d"
            (List.length lines)))

let test_pending_latch () =
  (* The latch as the crash-exit path reads it: [dump_pending] writes
     the exit dump iff a reason is pending, and consumes it. *)
  fresh (fun () ->
      let path = Filename.temp_file "stabsim-flight-exit" ".jsonl" in
      Sys.remove path;
      Flight.set_exit_dump path;
      let written () =
        let r = Doctor.load path in
        (try Sys.remove path with Sys_error _ -> ());
        match r with
        | Ok t -> (
          match Json.member "reason" t.Doctor.header with
          | Some (Json.String s) -> Some s
          | _ -> Some "?")
        | Error _ -> None
      in
      Flight.dump_pending ();
      Alcotest.(check (option string)) "starts empty" None (written ());
      Flight.set_pending "first";
      Flight.set_pending "second";
      Flight.dump_pending ();
      Alcotest.(check (option string)) "last reason wins" (Some "second") (written ());
      Flight.dump_pending ();
      Alcotest.(check (option string)) "take consumes" None (written ()))

(* --- the Cancel observers the campaign dump section depends on --- *)

let test_cancel_peek_does_not_latch () =
  (* A token already past its deadline: [peek] must not notice (no
     clock read, no latch), [poll] must. *)
  let t = Cancel.create ~deadline_ns:(Obs.now_ns () - 1_000_000) () in
  Alcotest.(check bool) "peek sees nothing" true (Cancel.peek t = None);
  Alcotest.(check bool) "peek did not latch" true (Cancel.peek t = None);
  Alcotest.check_raises "poll latches the timeout" (Cancel.Cancelled Cancel.Timeout)
    (fun () -> Cancel.with_current t Cancel.poll);
  Alcotest.(check bool) "now peek sees it" true
    (Cancel.peek t = Some Cancel.Timeout)

let test_cancel_last_poll_tracked () =
  let t = Cancel.create ~deadline_ns:(Obs.now_ns () + 1_000_000_000) () in
  Alcotest.(check int) "no poll yet" 0 (Cancel.last_poll_ns t);
  let before = Obs.now_ns () in
  Cancel.with_current t Cancel.poll;
  Alcotest.(check bool) "poll instant recorded" true
    (Cancel.last_poll_ns t >= before);
  ignore (Cancel.peek t);
  let after_peek = Cancel.last_poll_ns t in
  Cancel.with_current t Cancel.poll;
  Alcotest.(check bool) "peek froze it, poll advanced it" true
    (Cancel.last_poll_ns t >= after_peek)

(* --- doctor heuristics on a hand-built dump --- *)

let synthetic_dump =
  String.concat "\n"
    [
      {|{"type":"flight","schema":1,"reason":"synthetic","ts_ns":100000000000,"pid":1,"cmdline":["stabsim"],"ocaml":"5.0","cores":2,"commit":"abc123","dirty":false}|};
      {|{"type":"section","name":"campaign","data":{"name":"synthetic","inflight":[{"deadline_ns":90000000000,"last_poll_ns":null,"cancelled":null}],"workers":[{"worker":1,"domain":1,"cell":"ring:9/markov","cell_started_ns":80000000000}]}}|};
      {|{"type":"message","level":"warn","ts_ns":99000000000,"domain":1,"text":"markov: sweep budget exhausted (Max_sweeps=200)"}|};
    ]

(* [Doctor.load] of a file holding [text]. *)
let doctor_load_text text =
  let path = Filename.temp_file "stabsim-doctor" ".jsonl" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Doctor.load path)

(* Domains with at least one event. *)
let event_domains t =
  List.sort_uniq compare (List.filter_map (Stabobs.Json.member "domain") t.Doctor.events)

let test_doctor_hints () =
  match doctor_load_text synthetic_dump with
  | Error e -> Alcotest.failf "synthetic dump does not parse: %s" e
  | Ok t ->
    let rendered = Doctor.render t in
    (* The hints are the last section: one line each after "hints:". *)
    let hints =
      match List.rev (String.split_on_char '\n' rendered) with
      | "" :: lines ->
        let rec upto acc = function
          | "hints:" :: _ -> acc
          | l :: rest -> upto (l :: acc) rest
          | [] -> Alcotest.fail "no hints section rendered"
        in
        upto [] lines
      | _ -> Alcotest.fail "render does not end in a newline"
    in
    Alcotest.(check int) "all three smells diagnosed" 3 (List.length hints);
    let any sub = List.exists (fun h -> contains h sub) hints in
    Alcotest.(check bool) "stale cancel poll" true
      (any "stopped reaching Cancel.poll");
    Alcotest.(check bool) "heartbeat gap" true (any "heartbeat gap");
    Alcotest.(check bool) "sweep budget" true (any "sweep budget")

let test_doctor_rejects_non_dumps () =
  (match doctor_load_text {|{"type":"span_begin","name":"x","ts_ns":1}|} with
  | Error e ->
    Alcotest.(check bool) "headerless rejected" true (contains e "no header")
  | Ok _ -> Alcotest.fail "accepted a dump with no header");
  match doctor_load_text "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

(* --- the full pipeline: a real campaign SIGKILLed mid-run --- *)

let child_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "flight_child.exe"

let read_line_fd fd =
  let buf = Buffer.create 16 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  go ()

let test_sigkill_leaves_parseable_dump () =
  let checkpoint = Filename.temp_file "stabsim-flight-child" ".checkpoint.jsonl" in
  let base = Filename.remove_extension checkpoint in
  let dump = base ^ ".flight.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ checkpoint; dump ])
  @@ fun () ->
  let r, w = Unix.pipe () in
  let pid =
    Unix.create_process child_exe
      [| child_exe; checkpoint; base |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ready = read_line_fd r in
  Unix.close r;
  Alcotest.(check string) "child reported ready" "ready" ready;
  (* Wait until the rolling dump (refreshed after every settled cell)
     carries events from both worker domains, then kill without
     ceremony: SIGKILL, no handler, no at_exit. The very first refresh
     can land before the second worker has recorded anything. *)
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait_for_dump () =
    let ripe =
      Sys.file_exists dump
      &&
      match Doctor.load dump with
      | Ok t -> List.length (event_domains t) >= 2
      | Error _ -> false
    in
    if ripe then ()
    else if Unix.gettimeofday () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "rolling dump never showed both worker domains"
    end
    else begin
      Unix.sleepf 0.01;
      wait_for_dump ()
    end
  in
  wait_for_dump ();
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WSIGNALED n when n = Sys.sigkill -> ()
  | Unix.WSIGNALED n -> Alcotest.failf "child died on signal %d" n
  | Unix.WEXITED n -> Alcotest.failf "child exited %d before the kill" n
  | Unix.WSTOPPED _ -> Alcotest.fail "child stopped");
  match Doctor.load dump with
  | Error e -> Alcotest.failf "dump left by SIGKILL does not parse: %s" e
  | Ok t ->
    Alcotest.(check bool) "events survived" true (t.Doctor.events <> []);
    Alcotest.(check bool) "events from more than one domain" true
      (List.length (event_domains t) >= 2);
    Alcotest.(check bool) "campaign section present" true
      (List.mem_assoc "campaign" t.Doctor.sections);
    Alcotest.(check bool) "pool section present" true
      (List.mem_assoc "pool" t.Doctor.sections);
    let rendered = Doctor.render t in
    Alcotest.(check bool) "doctor renders a timeline" true
      (contains rendered "timeline (last");
    Alcotest.(check bool) "doctor names the campaign events" true
      (String.length rendered > 200)

let suite =
  [
    Alcotest.test_case "disabled recorder is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "enable lights hot without a sink" `Quick
      test_enable_lights_hot;
    Alcotest.test_case "notes bypass the log level" `Quick
      test_note_bypasses_level;
    Alcotest.test_case "spans captured sinkless, snapshot-free" `Quick
      test_spans_captured_sinkless;
    Alcotest.test_case "ring wraps, keeping the newest" `Quick test_ring_wraps;
    Alcotest.test_case "rings merge across domains" `Quick
      test_multi_domain_merge;
    Alcotest.test_case "dump round-trips through Doctor" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "dump_to writes a loadable file" `Quick
      test_dump_to_file_and_load;
    Alcotest.test_case "doctor sees the open-span stack" `Quick
      test_open_spans_at_dump;
    Alcotest.test_case "pending reason latches and is consumed" `Quick
      test_pending_latch;
    Alcotest.test_case "Cancel.peek never perturbs a token" `Quick
      test_cancel_peek_does_not_latch;
    Alcotest.test_case "Cancel tracks the last deadline poll" `Quick
      test_cancel_last_poll_tracked;
    Alcotest.test_case "doctor hints diagnose the known smells" `Quick
      test_doctor_hints;
    Alcotest.test_case "doctor rejects non-dumps" `Quick
      test_doctor_rejects_non_dumps;
    Alcotest.test_case "SIGKILLed campaign leaves a parseable dump" `Slow
      test_sigkill_leaves_parseable_dump;
  ]
