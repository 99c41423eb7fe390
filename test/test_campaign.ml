(* Tests for the campaign runner: spec parsing and hashing, checkpoint
   durability, cooperative cancellation, deterministic backoff, and the
   headline robustness guarantees — kill-and-resume produces the same
   report as an uninterrupted run, and a poison cell is quarantined
   without aborting the campaign. *)

open Stabcampaign
module Json = Stabobs.Json
module Obs = Stabobs.Obs

let tmp_checkpoint () = Filename.temp_file "stabsim-campaign" ".jsonl"

(* A small all-green campaign: 4 cheap cells across two topologies. *)
let green_campaign () =
  let cell analysis topology =
    {
      Campaign.protocol = "token-ring";
      topology;
      transformed = false;
      sched = Stabcore.Statespace.Central;
      analysis;
      faults = Campaign.No_faults;
      runs = 40;
      max_steps = 20_000;
      max_configs = 100_000;
    }
  in
  {
    Campaign.name = "test";
    seed = 11;
    timeout_ms = None;
    retries = 2;
    backoff_ms = 10;
    cells =
      [
        cell Campaign.Check "ring:4";
        cell Campaign.Markov "ring:4";
        cell Campaign.Montecarlo "ring:4";
        cell Campaign.Check "ring:5";
      ];
  }

let quiet_options () =
  { (Runner.default_options ()) with Runner.domains = 1; sleep = (fun _ -> ()) }

(* --- spec parsing --- *)

let test_matrix_cross_product () =
  let json =
    {|{"name":"m","matrix":{"protocol":["token-ring"],
       "topology":["ring:4","ring:5"],
       "sched":["central","synchronous"],
       "analysis":["check","montecarlo"],
       "faults":["none","burst:0:1"]}}|}
  in
  match Json.of_string json with
  | Error m -> Alcotest.fail m
  | Ok j -> (
    match Campaign.of_json j with
    | Error m -> Alcotest.fail m
    | Ok c ->
      (* 2 topologies x 2 scheds x (check*none + mc*none + mc*burst):
         fault plans only pair with montecarlo, so check*burst is
         dropped, not generated. *)
      Alcotest.(check int) "cells" (2 * 2 * 3) (List.length c.Campaign.cells);
      Alcotest.(check bool)
        "no faulty non-montecarlo cell" true
        (List.for_all
           (fun (cell : Campaign.cell) ->
             cell.Campaign.faults = Campaign.No_faults
             || cell.Campaign.analysis = Campaign.Montecarlo)
           c.Campaign.cells))

let test_parse_rejects_faulty_check_cell () =
  let json = {|{"cells":[{"analysis":"check","faults":"periodic:10:1"}]}|} in
  match Json.of_string json with
  | Error m -> Alcotest.fail m
  | Ok j -> (
    match Campaign.of_json j with
    | Ok _ -> Alcotest.fail "faults + check accepted"
    | Error m -> Alcotest.(check bool) "diagnostic nonempty" true (m <> ""))

let test_parse_rejects_empty () =
  match Json.of_string "{}" with
  | Error m -> Alcotest.fail m
  | Ok j -> (
    match Campaign.of_json j with
    | Ok _ -> Alcotest.fail "empty campaign accepted"
    | Error _ -> ())

(* Malformed fields fail the load, naming the field, instead of
   running (negative counts) or crashing every attempt (bad names). *)
let rejects ~field json () =
  match Json.of_string json with
  | Error m -> Alcotest.fail m
  | Ok j -> (
    match Campaign.of_json j with
    | Ok _ -> Alcotest.failf "accepted: %s" json
    | Error m ->
      let prefix = String.sub m 0 (min (String.length m) (String.length field)) in
      Alcotest.(check string) "diagnostic names the field" field prefix)

let with_cell field = Printf.sprintf {|{%s,"cells":[{"topology":"ring:4"}]}|} field

let rejections =
  [
    ("non-positive runs rejected", "runs", with_cell {|"runs":-3|});
    ( "non-positive max_steps rejected",
      "cell.max_steps",
      {|{"cells":[{"analysis":"montecarlo","max_steps":0}]}|} );
    ("non-positive max_configs rejected", "max_configs", with_cell {|"max_configs":0|});
    ("negative retries rejected", "retries", with_cell {|"retries":-1|});
    ("negative backoff_ms rejected", "backoff_ms", with_cell {|"backoff_ms":-5|});
    ("negative timeout_ms rejected", "timeout_ms", with_cell {|"timeout_ms":-1|});
    ( "unknown protocol rejected",
      "matrix.protocol",
      {|{"matrix":{"protocol":["nope"]}}|} );
    ( "unparsable topology rejected",
      "cell.topology",
      {|{"cells":[{"topology":"banana:3"}]}|} );
  ]

let test_cell_hash_is_content_addressed () =
  let c = green_campaign () in
  let cells = Array.of_list c.Campaign.cells in
  Alcotest.(check string)
    "stable" (Campaign.cell_hash cells.(0)) (Campaign.cell_hash cells.(0));
  Alcotest.(check bool)
    "distinct cells, distinct hashes" true
    (Campaign.cell_hash cells.(0) <> Campaign.cell_hash cells.(1));
  (* The seed mixes the campaign seed with the hash, so two campaigns
     differing only in seed run every cell differently. *)
  let other = { c with Campaign.seed = 12 } in
  Alcotest.(check bool)
    "seed shifts cell seeds" true
    (Campaign.cell_seed c cells.(0) <> Campaign.cell_seed other cells.(0))

(* --- checkpoint store --- *)

let sample_record status =
  {
    Checkpoint.hash = "abc123";
    label = "token-ring(ring:4)/central/check";
    status;
    mode = "exact";
    retries = 1;
    payload = Json.Obj [ ("weak", Json.Bool true) ];
    error = None;
  }

let test_checkpoint_roundtrip () =
  List.iter
    (fun status ->
      let r = sample_record status in
      match Checkpoint.record_of_json (Checkpoint.record_to_json r) with
      | None -> Alcotest.fail "roundtrip lost the record"
      | Some r' ->
        Alcotest.(check bool) "identical" true (r = r'))
    [ Checkpoint.Done; Checkpoint.Degraded; Checkpoint.Timed_out; Checkpoint.Quarantined ]

let test_checkpoint_parse_tolerates_torn_tail () =
  let whole = Json.to_string (Checkpoint.record_to_json (sample_record Checkpoint.Done)) in
  let torn = String.sub whole 0 (String.length whole - 7) in
  let text =
    String.concat "\n"
      [ {|{"type":"campaign","name":"t"}|}; whole; "not json at all"; torn ]
  in
  let records = Checkpoint.parse_string text in
  (* The torn line and the garbage line are skipped; the header is not
     a cell; exactly the one whole record survives. *)
  Alcotest.(check int) "one record" 1 (List.length records)

let test_checkpoint_index_later_wins () =
  let early = { (sample_record Checkpoint.Timed_out) with Checkpoint.retries = 0 } in
  let late = sample_record Checkpoint.Done in
  let idx = Checkpoint.index [ early; late ] in
  match Hashtbl.find_opt idx "abc123" with
  | Some r -> Alcotest.(check bool) "later record" true (r.Checkpoint.status = Checkpoint.Done)
  | None -> Alcotest.fail "hash missing"

let test_checkpoint_file_append_and_load () =
  let path = tmp_checkpoint () in
  let sink = Checkpoint.open_append ~fresh:true ~name:"t" path in
  Checkpoint.append sink (sample_record Checkpoint.Done);
  Checkpoint.close sink;
  (* Reopening without [fresh] appends instead of truncating. *)
  let sink = Checkpoint.open_append ~name:"t" path in
  Checkpoint.append sink { (sample_record Checkpoint.Degraded) with Checkpoint.hash = "def" };
  Checkpoint.close sink;
  let records = Checkpoint.load path in
  Sys.remove path;
  Alcotest.(check int) "both records" 2 (List.length records)

let test_checkpoint_append_after_torn_tail () =
  (* A SIGKILL mid-write leaves a torn line with no newline. Reopening
     must repair the tail so the resume's first record is not glued
     onto the garbage and lost with it. *)
  let path = tmp_checkpoint () in
  let oc = open_out path in
  output_string oc "{\"type\":\"campaign\",\"name\":\"t\"}\n{\"type\":\"cell\",\"hash\":\"torn";
  close_out oc;
  let sink = Checkpoint.open_append ~name:"t" path in
  Checkpoint.append sink (sample_record Checkpoint.Done);
  Checkpoint.close sink;
  let records = Checkpoint.load path in
  Sys.remove path;
  Alcotest.(check int) "appended record survives" 1 (List.length records);
  Alcotest.(check string) "the whole record, not the tail" "abc123"
    (List.hd records).Checkpoint.hash

(* --- cooperative cancellation --- *)

let test_cancel_latches_first_reason () =
  let t = Stabcore.Cancel.create () in
  Alcotest.(check bool) "fresh" true (Stabcore.Cancel.cancelled t = None);
  Stabcore.Cancel.cancel ~reason:Stabcore.Cancel.Timeout t;
  Stabcore.Cancel.cancel ~reason:Stabcore.Cancel.Drained t;
  Alcotest.(check bool)
    "first reason wins" true
    (Stabcore.Cancel.cancelled t = Some Stabcore.Cancel.Timeout)

let test_cancel_deadline_fires () =
  let t = Stabcore.Cancel.create ~deadline_ns:(Stabobs.Obs.now_ns () - 1) () in
  Alcotest.check_raises "expired deadline"
    (Stabcore.Cancel.Cancelled Stabcore.Cancel.Timeout) (fun () ->
      Stabcore.Cancel.check t)

let test_cancel_current_scoping () =
  Alcotest.(check bool) "no ambient token" true (Stabcore.Cancel.current () = None);
  Stabcore.Cancel.poll ();
  (* no token: a no-op *)
  let t = Stabcore.Cancel.create () in
  Stabcore.Cancel.with_current t (fun () ->
      Alcotest.(check bool) "token visible" true (Stabcore.Cancel.current () = Some t));
  Alcotest.(check bool) "restored" true (Stabcore.Cancel.current () = None)

(* --- deterministic backoff --- *)

let test_backoff_deterministic_and_bounded () =
  let a = Runner.backoff_delays ~seed:99 ~base_ms:100 ~attempts:6 in
  let b = Runner.backoff_delays ~seed:99 ~base_ms:100 ~attempts:6 in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" a b;
  List.iteri
    (fun i d ->
      let base = 0.1 *. Float.pow 2.0 (float_of_int i) in
      (* delay_i = base * 2^i * u_i with u_i in [0.5, 1.5). *)
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in its jitter band" i)
        true
        (d >= 0.5 *. base && d < 1.5 *. base))
    a;
  let c = Runner.backoff_delays ~seed:100 ~base_ms:100 ~attempts:6 in
  Alcotest.(check bool) "different seed, different jitter" true (a <> c)

(* --- the runner itself --- *)

let render campaign outcomes = Stabexp.Report.render (Runner.report campaign outcomes)

let test_run_all_green () =
  let campaign = green_campaign () in
  let outcomes, stats = Runner.run ~options:(quiet_options ()) campaign in
  Alcotest.(check int) "all cells" 4 (List.length outcomes);
  Alcotest.(check int) "all done" 4 stats.Runner.done_;
  Alcotest.(check int) "nothing skipped" 0 stats.Runner.skipped;
  Alcotest.(check int) "nothing unfinished" 0 stats.Runner.unfinished;
  (* Outcomes come back in campaign order regardless of execution. *)
  List.iter2
    (fun (o : Runner.cell_outcome) cell ->
      Alcotest.(check string) "order" (Campaign.cell_label cell)
        (Campaign.cell_label o.Runner.cell))
    outcomes campaign.Campaign.cells

let test_kill_and_resume_matches_uninterrupted () =
  let campaign = green_campaign () in
  (* Ground truth: one uninterrupted run, no checkpoint. *)
  let full_outcomes, _ = Runner.run ~options:(quiet_options ()) campaign in
  let expected = render campaign full_outcomes in
  (* Interrupted run: drain after two checkpoint appends — the
     deterministic stand-in for a kill between two cells. *)
  let path = tmp_checkpoint () in
  let killed =
    {
      (quiet_options ()) with
      Runner.checkpoint = Some path;
      fresh = true;
      stop_after = Some 2;
    }
  in
  let _, stats1 = Runner.run ~options:killed campaign in
  Alcotest.(check int) "two cells survived the kill" 2 stats1.Runner.executed;
  Alcotest.(check int) "two cells unfinished" 2 stats1.Runner.unfinished;
  (* Resume: the finished cells are skipped, the rest re-executed. *)
  let resumed = { (quiet_options ()) with Runner.checkpoint = Some path } in
  let outcomes2, stats2 = Runner.run ~options:resumed campaign in
  Sys.remove path;
  Alcotest.(check int) "resume skips finished cells" 2 stats2.Runner.skipped;
  Alcotest.(check int) "resume executes the rest" 2 stats2.Runner.executed;
  Alcotest.(check int) "campaign complete" 0 stats2.Runner.unfinished;
  (* The headline guarantee: the merged report is byte-identical to the
     uninterrupted run's. *)
  Alcotest.(check string) "byte-identical report" expected (render campaign outcomes2)

let test_poison_cell_quarantined () =
  let campaign = green_campaign () in
  let poison =
    { (List.hd campaign.Campaign.cells) with Campaign.protocol = "no-such-protocol" }
  in
  let campaign =
    { campaign with Campaign.cells = [ poison; List.nth campaign.Campaign.cells 1 ] }
  in
  let outcomes, stats = Runner.run ~options:(quiet_options ()) campaign in
  Alcotest.(check int) "campaign not aborted" 2 (List.length outcomes);
  Alcotest.(check int) "poison quarantined" 1 stats.Runner.quarantined;
  Alcotest.(check int) "healthy cell done" 1 stats.Runner.done_;
  let o = List.hd outcomes in
  Alcotest.(check bool) "quarantine carries the error" true (o.Runner.error <> None);
  (* Quarantine means the crash budget (two worker crashes) was spent:
     one retry beyond the first attempt. *)
  Alcotest.(check int) "crashed twice" 1 o.Runner.retries

let test_zero_timeout_exhausts_ladder () =
  let campaign = green_campaign () in
  let campaign = { campaign with Campaign.cells = [ List.hd campaign.Campaign.cells ] } in
  let options = { (quiet_options ()) with Runner.timeout_ms = Some 0 } in
  let outcomes, stats = Runner.run ~options campaign in
  Alcotest.(check int) "timed out" 1 stats.Runner.timed_out;
  let o = List.hd outcomes in
  (* Every rung timed out, so the final mode is the ladder's last. *)
  Alcotest.(check string) "died on the last rung" "montecarlo" o.Runner.mode;
  Alcotest.(check bool)
    "demotions counted as retries" true (o.Runner.retries >= 2)

(* Size-based demotion: a cell whose max_configs is below its space
   never reaches the exact rung's answer. The payloads are pinned
   byte for byte. *)
let run_one cell =
  let campaign = { (green_campaign ()) with Campaign.cells = [ cell ] } in
  let outcomes, _ = Runner.run ~options:(quiet_options ()) campaign in
  let o = List.hd outcomes in
  (Checkpoint.status_to_string o.Runner.status, o.Runner.mode,
   Json.to_string o.Runner.payload)

let check_outcome what (status, mode, payload) got =
  let got_status, got_mode, got_payload = got in
  Alcotest.(check string) (what ^ " status") status got_status;
  Alcotest.(check string) (what ^ " mode") mode got_mode;
  Alcotest.(check string) (what ^ " payload") payload got_payload

let test_check_over_budget_demotes_to_onthefly () =
  let cell = List.hd (green_campaign ()).Campaign.cells in
  (* 4096 configurations against a budget of 3000: the on-the-fly
     exploration from five sampled configurations fits. *)
  check_outcome "check ring:6"
    ("degraded", "onthefly",
     {|{"inits":5,"possible":"holds","certain":"fails@441","explored":2206}|})
    (run_one { cell with Campaign.topology = "ring:6"; max_configs = 3000 })

let test_markov_over_budget_demotes_to_montecarlo () =
  let cell = List.nth (green_campaign ()).Campaign.cells 1 in
  (* A Markov cell has no on-the-fly rung: 32 configurations against a
     budget of 20 go straight to sampling. *)
  check_outcome "markov ring:5"
    ("degraded", "montecarlo",
     {|{"runs":40,"converged":40,"timeouts":0,"mean_steps":1.825,"mean_rounds":0.225}|})
    (run_one { cell with Campaign.topology = "ring:5"; max_configs = 20 })

let test_degraded_montecarlo_is_deterministic () =
  (* A Monte-Carlo cell's numbers depend only on (cell, campaign seed):
     running the same campaign twice gives identical payloads. *)
  let campaign = green_campaign () in
  let mc = List.nth campaign.Campaign.cells 2 in
  let campaign = { campaign with Campaign.cells = [ mc ] } in
  let run () =
    let outcomes, _ = Runner.run ~options:(quiet_options ()) campaign in
    Json.to_string (List.hd outcomes).Runner.payload
  in
  Alcotest.(check string) "identical payloads" (run ()) (run ())

(* --- the status server --- *)

let get_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what e

let parse_json what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s is not JSON: %s" what e

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let tmp_socket () =
  (* temp_file creates a regular file; the server wants to create the
     socket itself, so reserve the name and remove the placeholder. *)
  let path = Filename.temp_file "stabsim-status" ".sock" in
  Sys.remove path;
  path

let spin_until ~what pred =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (pred ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
    Domain.cpu_relax ()
  done

let test_status_server_scrape_mid_run () =
  (* Deterministic "scrape while a cell executes": the first cell is
     poison, and the injectable backoff sleeper doubles as a rendezvous
     — it parks the (only) worker mid-cell until the main thread has
     scraped both endpoints. *)
  let campaign = green_campaign () in
  let poison =
    { (List.hd campaign.Campaign.cells) with Campaign.protocol = "no-such-protocol" }
  in
  let campaign =
    { campaign with Campaign.cells = [ poison; List.nth campaign.Campaign.cells 1 ] }
  in
  let mid = Atomic.make false and release = Atomic.make false in
  let sleep _ =
    Atomic.set mid true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done
  in
  let options = { (quiet_options ()) with Runner.sleep = sleep } in
  let socket = tmp_socket () in
  let server = Status.start ~socket () in
  Fun.protect ~finally:(fun () -> Status.stop server; Obs.clear ())
  @@ fun () ->
  let runner = Domain.spawn (fun () -> Runner.run ~options campaign) in
  spin_until ~what:"worker reaching the poison cell's backoff" (fun () ->
      Atomic.get mid);
  (* The worker is parked inside the poison cell: /status must show a
     running campaign with a busy worker and nothing settled. *)
  let body = get_ok "/status" (Status.client_fetch ~target:socket ~path:"/status") in
  let doc = parse_json "/status" body in
  let campaign_doc =
    match Json.member "campaign" doc with
    | Some (Json.Obj _ as c) -> c
    | _ -> Alcotest.fail "no campaign object in /status"
  in
  Alcotest.(check bool) "campaign name" true
    (Json.member "name" campaign_doc = Some (Json.String "test"));
  Alcotest.(check bool) "not finished" true
    (Json.member "finished" campaign_doc = Some (Json.Bool false));
  (match Json.member "cells" campaign_doc with
  | Some cells ->
    Alcotest.(check bool) "total 2" true
      (Json.member "total" cells = Some (Json.Int 2));
    Alcotest.(check bool) "nothing settled yet" true
      (Json.member "remaining" cells = Some (Json.Int 2))
  | None -> Alcotest.fail "no cells object");
  (match Json.member "workers" campaign_doc with
  | Some (Json.List [ w ]) ->
    Alcotest.(check bool) "worker busy on the poison cell" true
      (match Json.member "cell" w with Some (Json.String _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected exactly one worker heartbeat");
  let metrics =
    get_ok "/metrics" (Status.client_fetch ~target:socket ~path:"/metrics")
  in
  Alcotest.(check bool) "cells.total gauge exposed" true
    (contains metrics "stabsim_campaign_cells_total 2");
  Alcotest.(check bool) "busy worker gauge exposed" true
    (contains metrics "stabsim_campaign_worker_busy{worker=\"0\"} 1");
  Alcotest.(check bool) "TYPE lines present" true
    (contains metrics "# TYPE stabsim_campaign_cells_total gauge");
  (* 404 for anything else. *)
  (match Status.client_fetch ~target:socket ~path:"/nope" with
  | Ok _ -> Alcotest.fail "unknown path answered 200"
  | Error e -> Alcotest.(check bool) "404 reported" true (contains e "404"));
  Atomic.set release true;
  let _, stats = Domain.join runner in
  Alcotest.(check int) "campaign finished" 0 stats.Runner.unfinished;
  (* Post-run scrape: the live state stays readable after run returns. *)
  let body = get_ok "/status" (Status.client_fetch ~target:socket ~path:"/status") in
  let doc = parse_json "/status" body in
  (match Json.member "campaign" doc with
  | Some c ->
    Alcotest.(check bool) "finished flag set" true
      (Json.member "finished" c = Some (Json.Bool true));
    (match Json.member "cells" c with
    | Some cells ->
      Alcotest.(check bool) "none remaining" true
        (Json.member "remaining" cells = Some (Json.Int 0))
    | None -> Alcotest.fail "no cells object after run")
  | None -> Alcotest.fail "no campaign after run");
  (* The human rendering digests the same document without raising. *)
  let rendered = Status.render_status doc in
  Alcotest.(check bool) "render mentions the campaign" true
    (contains rendered "campaign test")

let test_status_server_tcp_ephemeral () =
  let server = Status.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Status.stop server; Obs.clear ())
  @@ fun () ->
  let port =
    match Status.port server with
    | Some p -> p
    | None -> Alcotest.fail "no TCP port reported"
  in
  Alcotest.(check bool) "ephemeral port is real" true (port > 0);
  let target = Printf.sprintf ":%d" port in
  let body = get_ok "/status" (Status.client_fetch ~target ~path:"/status") in
  let doc = parse_json "/status" body in
  Alcotest.(check bool) "schema stamped" true
    (Json.member "schema" doc = Some (Json.Int 1));
  Alcotest.(check bool) "metrics section present" true
    (match Json.member "metrics" doc with Some (Json.Obj _) -> true | _ -> false);
  let root = get_ok "/" (Status.client_fetch ~target ~path:"/") in
  Alcotest.(check bool) "root lists endpoints" true (contains root "/metrics")

let test_status_stop_idempotent_and_unlinks () =
  let socket = tmp_socket () in
  let server = Status.start ~socket () in
  Alcotest.(check bool) "socket exists while serving" true (Sys.file_exists socket);
  Status.stop server;
  Status.stop server;
  Obs.clear ();
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists socket);
  match Status.client_fetch ~target:socket ~path:"/status" with
  | Ok _ -> Alcotest.fail "fetch succeeded after stop"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "matrix cross product" `Quick test_matrix_cross_product;
    Alcotest.test_case "faulty check cell rejected" `Quick test_parse_rejects_faulty_check_cell;
    Alcotest.test_case "empty campaign rejected" `Quick test_parse_rejects_empty;
  ]
  @ List.map
      (fun (name, field, json) -> Alcotest.test_case name `Quick (rejects ~field json))
      rejections
  @ [
    Alcotest.test_case "cell hash content-addressed" `Quick test_cell_hash_is_content_addressed;
    Alcotest.test_case "checkpoint json roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint tolerates torn tail" `Quick test_checkpoint_parse_tolerates_torn_tail;
    Alcotest.test_case "checkpoint later record wins" `Quick test_checkpoint_index_later_wins;
    Alcotest.test_case "checkpoint append and load" `Quick test_checkpoint_file_append_and_load;
    Alcotest.test_case "checkpoint repairs torn tail" `Quick test_checkpoint_append_after_torn_tail;
    Alcotest.test_case "cancel latches first reason" `Quick test_cancel_latches_first_reason;
    Alcotest.test_case "cancel deadline fires" `Quick test_cancel_deadline_fires;
    Alcotest.test_case "cancel current scoping" `Quick test_cancel_current_scoping;
    Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic_and_bounded;
    Alcotest.test_case "run all green" `Quick test_run_all_green;
    Alcotest.test_case "kill and resume byte-identical" `Quick test_kill_and_resume_matches_uninterrupted;
    Alcotest.test_case "poison cell quarantined" `Quick test_poison_cell_quarantined;
    Alcotest.test_case "zero timeout exhausts ladder" `Quick test_zero_timeout_exhausts_ladder;
    Alcotest.test_case "check over budget demotes to onthefly" `Quick
      test_check_over_budget_demotes_to_onthefly;
    Alcotest.test_case "markov over budget demotes to montecarlo" `Quick
      test_markov_over_budget_demotes_to_montecarlo;
    Alcotest.test_case "degraded montecarlo deterministic" `Quick test_degraded_montecarlo_is_deterministic;
    Alcotest.test_case "status server scrape mid-run" `Quick
      test_status_server_scrape_mid_run;
    Alcotest.test_case "status server tcp ephemeral port" `Quick
      test_status_server_tcp_ephemeral;
    Alcotest.test_case "status stop idempotent and unlinks" `Quick
      test_status_stop_idempotent_and_unlinks;
  ]
