open Stabcore
module Json = Stabobs.Json
module Obs = Stabobs.Obs

type cell_outcome = {
  cell : Campaign.cell;
  hash : string;
  status : Checkpoint.status;
  mode : string;
  retries : int;
  payload : Json.t;
  error : string option;
  duration_ns : int;
  from_checkpoint : bool;
}

type stats = {
  cells : int;
  executed : int;
  skipped : int;
  unfinished : int;
  done_ : int;
  degraded : int;
  timed_out : int;
  quarantined : int;
  retried : int;
}

type options = {
  domains : int;
  checkpoint : string option;
  fresh : bool;
  timeout_ms : int option;
  sleep : float -> unit;
  stop_after : int option;
  flight : string option;
}

let default_options () =
  {
    domains = Pool.default_width ();
    checkpoint = None;
    fresh = false;
    timeout_ms = None;
    sleep = Unix.sleepf;
    stop_after = None;
    flight = None;
  }

(* Flight-dump paths, derived from the base the caller picked (the CLI
   uses the checkpoint path minus its extension, so the artifacts sit
   next to the checkpoint they explain). The rolling dump is refreshed
   after every settled cell — it is what survives a SIGKILL — and each
   quarantined / timed-out cell gets its own dump keyed by the cell
   hash. *)
let rolling_dump_path base = base ^ ".flight.jsonl"

let cell_dump_path base hash =
  let short =
    if String.length hash > 12 then String.sub hash 0 12 else hash
  in
  Printf.sprintf "%s.flight-%s.jsonl" base short

(* {1 Telemetry} *)

let c_done = Obs.Counter.make "campaign.done"
let c_degraded = Obs.Counter.make "campaign.degraded"
let c_timed_out = Obs.Counter.make "campaign.timed-out"
let c_quarantined = Obs.Counter.make "campaign.quarantined"
let c_retried = Obs.Counter.make "campaign.retried"
let c_skipped = Obs.Counter.make "campaign.skipped"
let d_cell_duration = Stabobs.Dist.make "campaign.cell.duration"
let g_cells_total = Stabobs.Registry.Gauge.make "campaign.cells.total"
let g_cells_remaining = Stabobs.Registry.Gauge.make "campaign.cells.remaining"
let g_workers = Stabobs.Registry.Gauge.make "campaign.workers"
let l_campaign = Stabobs.Registry.Label.make "campaign.name"

let counter_of_status = function
  | Checkpoint.Done -> c_done
  | Checkpoint.Degraded -> c_degraded
  | Checkpoint.Timed_out -> c_timed_out
  | Checkpoint.Quarantined -> c_quarantined

(* {1 Live progress}

   The status server reads campaign progress from any domain while
   workers run, so everything here is a single Atomic cell per field:
   no locks on either side, no torn reads. One [live] record per
   {!run}; it stays readable after the run finishes (finished_ns set)
   so a scrape between campaign end and process exit still answers. *)

type heartbeat = {
  hb_worker : int;
  hb_domain : int;
  hb_cell : (string * int) option;  (* current cell label, started at ns *)
}

type progress = {
  p_name : string;
  p_started_ns : int;
  p_finished_ns : int option;
  p_total : int;
  p_workers : int;
  p_done : int;
  p_degraded : int;
  p_timed_out : int;
  p_quarantined : int;
  p_skipped : int;
  p_retried : int;
  p_executed : int;
  p_executed_ns : int;
  p_draining : bool;
}

type slot = { s_domain : int Atomic.t; s_cell : (string * int) option Atomic.t }

type live = {
  v_name : string;
  v_started : int;
  v_finished : int Atomic.t;  (* 0 while running *)
  v_total : int;
  v_done : int Atomic.t;
  v_degraded : int Atomic.t;
  v_timed_out : int Atomic.t;
  v_quarantined : int Atomic.t;
  v_skipped : int Atomic.t;
  v_retried : int Atomic.t;
  v_executed : int Atomic.t;
  v_executed_ns : int Atomic.t;
  v_slots : slot array;
}

let live_state : live option Atomic.t = Atomic.make None

let live_create ~name ~total ~workers =
  let v =
    {
      v_name = name;
      v_started = Obs.now_ns ();
      v_finished = Atomic.make 0;
      v_total = total;
      v_done = Atomic.make 0;
      v_degraded = Atomic.make 0;
      v_timed_out = Atomic.make 0;
      v_quarantined = Atomic.make 0;
      v_skipped = Atomic.make 0;
      v_retried = Atomic.make 0;
      v_executed = Atomic.make 0;
      v_executed_ns = Atomic.make 0;
      v_slots =
        Array.init workers (fun _ ->
            { s_domain = Atomic.make (-1); s_cell = Atomic.make None });
    }
  in
  Atomic.set live_state (Some v);
  v

let live_settled v =
  Atomic.get v.v_done + Atomic.get v.v_degraded + Atomic.get v.v_timed_out
  + Atomic.get v.v_quarantined + Atomic.get v.v_skipped

let live_counter v = function
  | Checkpoint.Done -> v.v_done
  | Checkpoint.Degraded -> v.v_degraded
  | Checkpoint.Timed_out -> v.v_timed_out
  | Checkpoint.Quarantined -> v.v_quarantined

(* {1 Graceful drain}

   The flag and the in-flight token registry are plain atomics, so
   [request_drain] is safe from a signal handler (no locks taken): it
   raises the flag, then cancels every registered token so cells in
   flight unwind at their next [Cancel.poll]. *)

let drain_flag = Atomic.make false
let inflight : Cancel.t list Atomic.t = Atomic.make []

let rec inflight_add tok =
  let cur = Atomic.get inflight in
  if not (Atomic.compare_and_set inflight cur (tok :: cur)) then inflight_add tok

let rec inflight_remove tok =
  let cur = Atomic.get inflight in
  let next = List.filter (fun t -> t != tok) cur in
  if not (Atomic.compare_and_set inflight cur next) then inflight_remove tok

let request_drain () =
  Atomic.set drain_flag true;
  List.iter (fun tok -> Cancel.cancel tok) (Atomic.get inflight)

let draining () = Atomic.get drain_flag

let progress () =
  match Atomic.get live_state with
  | None -> None
  | Some v ->
    Some
      {
        p_name = v.v_name;
        p_started_ns = v.v_started;
        p_finished_ns =
          (match Atomic.get v.v_finished with 0 -> None | t -> Some t);
        p_total = v.v_total;
        p_workers = Array.length v.v_slots;
        p_done = Atomic.get v.v_done;
        p_degraded = Atomic.get v.v_degraded;
        p_timed_out = Atomic.get v.v_timed_out;
        p_quarantined = Atomic.get v.v_quarantined;
        p_skipped = Atomic.get v.v_skipped;
        p_retried = Atomic.get v.v_retried;
        p_executed = Atomic.get v.v_executed;
        p_executed_ns = Atomic.get v.v_executed_ns;
        p_draining = draining ();
      }

let heartbeats () =
  match Atomic.get live_state with
  | None -> []
  | Some v ->
    Array.to_list
      (Array.mapi
         (fun i s ->
           {
             hb_worker = i;
             hb_domain = Atomic.get s.s_domain;
             hb_cell = Atomic.get s.s_cell;
           })
         v.v_slots)

(* Flight-dump section: campaign progress, per-worker heartbeats and
   the in-flight cancellation tokens (deadline + last poll instant),
   which is exactly what [stabsim doctor]'s stuck-cell heuristics
   read. Registered once at module init; runs only when a dump is
   written. *)
let () =
  Stabobs.Flight.add_section "campaign" (fun () ->
      match Atomic.get live_state with
      | None -> Json.Null
      | Some v ->
        let opt_int = function None -> Json.Null | Some i -> Json.Int i in
        let worker hb =
          Json.Obj
            [
              ("worker", Json.Int hb.hb_worker);
              ("domain", Json.Int hb.hb_domain);
              ( "cell",
                match hb.hb_cell with
                | None -> Json.Null
                | Some (label, _) -> Json.String label );
              ( "cell_started_ns",
                match hb.hb_cell with
                | None -> Json.Null
                | Some (_, t0) -> Json.Int t0 );
            ]
        in
        let token tok =
          Json.Obj
            [
              ("deadline_ns", opt_int (Cancel.deadline_ns tok));
              ( "last_poll_ns",
                match Cancel.last_poll_ns tok with
                | 0 -> Json.Null
                | t -> Json.Int t );
              ( "cancelled",
                match Cancel.peek tok with
                | None -> Json.Null
                | Some r -> Json.String (Format.asprintf "%a" Cancel.pp_reason r)
              );
            ]
        in
        Json.Obj
          [
            ("name", Json.String v.v_name);
            ("started_ns", Json.Int v.v_started);
            ("total", Json.Int v.v_total);
            ("done", Json.Int (Atomic.get v.v_done));
            ("degraded", Json.Int (Atomic.get v.v_degraded));
            ("timed_out", Json.Int (Atomic.get v.v_timed_out));
            ("quarantined", Json.Int (Atomic.get v.v_quarantined));
            ("skipped", Json.Int (Atomic.get v.v_skipped));
            ("retried", Json.Int (Atomic.get v.v_retried));
            ("draining", Json.Bool (draining ()));
            ("workers", Json.List (List.map worker (heartbeats ())));
            ( "inflight",
              Json.List (List.map token (Atomic.get inflight)) );
          ])

(* {1 Deterministic backoff} *)

let backoff_delays ~seed ~base_ms ~attempts =
  let rng = Stabrng.Rng.create seed in
  List.init attempts (fun i ->
      let jitter = 0.5 +. Stabrng.Rng.float rng in
      float_of_int base_ms *. Float.pow 2.0 (float_of_int i) *. jitter /. 1000.0)

(* {1 One cell's analysis}

   One rung of the cell's {!Analysis} request, run inside the attempt's
   Cancel token so a timeout or drain interrupts it at the library poll
   points. Every rung draws from the cell's own seed, so results are a
   pure function of (cell, campaign seed). *)

let onthefly_verdict = function
  | Onthefly.Converges -> "holds"
  | Onthefly.Counterexample c -> Printf.sprintf "fails@%d" c
  | Onthefly.Unknown -> "unknown"

let mc_field = function
  | Some s -> Json.Float s.Stabstats.Stats.mean
  | None -> Json.Null

let payload (cell : Campaign.cell) = function
  | Analysis.Verdicts { space; verdict = v } ->
    Json.Obj
      [
        ("configs", Json.Int (Statespace.count space));
        ("weak", Json.Bool (Checker.weak_stabilizing v));
        ("self", Json.Bool (Checker.self_stabilizing v));
        ("self_weakly_fair", Json.Bool (Checker.self_stabilizing_weakly_fair v));
        ("self_strongly_fair", Json.Bool (Checker.self_stabilizing_strongly_fair v));
      ]
  | Analysis.Chain { hitting = Error c; _ } ->
    Json.Obj [ ("prob1", Json.Bool false); ("unreachable_from", Json.Int c) ]
  | Analysis.Chain { space; hitting = Ok (stats, _) } ->
    Json.Obj
      [
        ("prob1", Json.Bool true);
        ("configs", Json.Int (Statespace.count space));
        ("mean", Json.Float stats.Markov.mean);
        ("max", Json.Float stats.Markov.max);
      ]
  | Analysis.Reachable { inits; result; _ } ->
    Json.Obj
      [
        ("inits", Json.Int inits);
        ("possible", Json.String (onthefly_verdict result.Onthefly.possible));
        ("certain", Json.String (onthefly_verdict result.Onthefly.certain));
        ("explored", Json.Int result.Onthefly.stats.Onthefly.explored);
      ]
  | Analysis.Simulated r ->
    Json.Obj
      [
        ("runs", Json.Int cell.runs);
        ("converged", Json.Int (Array.length r.Montecarlo.times));
        ("timeouts", Json.Int r.Montecarlo.timeouts);
        ("mean_steps", mc_field r.Montecarlo.summary);
        ("mean_rounds", mc_field r.Montecarlo.rounds_summary);
      ]

let run_cell_analysis campaign (cell : Campaign.cell) rung =
  let (Stabexp.Registry.Entry { protocol; spec; _ }) =
    Stabexp.Registry.find ~name:cell.protocol ~topology:cell.topology
      ~transformed:cell.transformed ()
  in
  let inject =
    match cell.faults with
    | Campaign.No_faults -> None
    | Campaign.Periodic { gap; faults } ->
      Some (Faults.arm (Faults.periodic protocol ~gap ~faults))
    | Campaign.Bernoulli { rate; faults } ->
      Some (Faults.arm (Faults.bernoulli protocol ~rate ~faults))
    | Campaign.Burst { at; faults } -> Some (Faults.arm (Faults.burst protocol ~at ~faults))
  in
  let request =
    Analysis.request ~max_configs:cell.max_configs
      ~seed:(Campaign.cell_seed campaign cell) ~runs:cell.runs ~max_steps:cell.max_steps
      ?inject (Analysis.instance protocol spec) cell.sched
  in
  Result.map (payload cell) (Analysis.attempt request cell.analysis rung)

(* {1 The per-cell attempt state machine} *)

exception Drain_exit

(* Crash budget: a cell that crashes its worker twice is poison and is
   quarantined rather than allowed a third try. *)
let crash_budget = 2

(* The checkpoint record of the cell's final attempt. *)
let attempt_cell (campaign : Campaign.t) options (cell : Campaign.cell) ~hash ~label =
  let timeout_ms =
    match options.timeout_ms with
    | Some _ as t -> t
    | None -> campaign.Campaign.timeout_ms
  in
  let delays =
    (* Enough delays for every retry source: transient retries, crash
       retries and one demotion per remaining rung. *)
    Array.of_list
      (backoff_delays
         ~seed:(Campaign.cell_seed campaign cell)
         ~base_ms:campaign.Campaign.backoff_ms
         ~attempts:(campaign.Campaign.retries + crash_budget + 3))
  in
  let backoff_idx = ref 0 in
  let backoff () =
    let i = min !backoff_idx (Array.length delays - 1) in
    incr backoff_idx;
    options.sleep delays.(i)
  in
  let retries = ref 0 in
  let retry () =
    incr retries;
    Obs.Counter.incr c_retried;
    match Atomic.get live_state with
    | Some v -> Atomic.incr v.v_retried
    | None -> ()
  in
  let transients = ref 0 in
  let crashes = ref 0 in
  let finish status mode payload error =
    { Checkpoint.hash; label; status; mode; retries = !retries; payload; error }
  in
  let rec again rung rest degraded =
    retry ();
    backoff ();
    attempt rung rest degraded
  and attempt rung rest degraded =
    if draining () then raise Drain_exit;
    let deadline_ns =
      Option.map (fun ms -> Obs.now_ns () + (ms * 1_000_000)) timeout_ms
    in
    let tok = Cancel.create ?deadline_ns () in
    inflight_add tok;
    (* A drain raised between the check above and the registration
       would miss this token; re-check now that it is visible. *)
    if draining () then Cancel.cancel tok;
    let outcome =
      Fun.protect ~finally:(fun () -> inflight_remove tok) @@ fun () ->
      match Cancel.with_current tok (fun () -> run_cell_analysis campaign cell rung) with
      | Ok payload -> `Ok payload
      | Error reason -> `Unanswered reason
      | exception Cancel.Cancelled Cancel.Drained -> `Drained
      | exception Cancel.Cancelled Cancel.Timeout -> `Timeout
      | exception Sys_error msg -> `Transient msg
      | exception e -> `Crash (Printexc.to_string e)
    in
    let mode = Analysis.rung_label rung in
    (* Down one rung, or end [status] when none is left; a timeout
       counts as a retry and backs off. *)
    let demote ~timeout status why =
      let note = Printf.sprintf "campaign: %s %s on the %s rung" label why mode in
      match rest with
      | next :: rest' ->
        Obs.infof "%s; demoting" note;
        Stabobs.Flight.notef "%s; demoting" note;
        if timeout then again next rest' true else attempt next rest' true
      | [] ->
        Stabobs.Flight.notef "%s (no rung left)" note;
        finish status mode Json.Null
          (Some (Printf.sprintf "%s on the %s rung (no rung left)" why mode))
    in
    match outcome with
    | `Ok payload ->
      finish (if degraded then Checkpoint.Degraded else Checkpoint.Done) mode payload None
    | `Drained -> raise Drain_exit
    | `Timeout -> demote ~timeout:true Checkpoint.Timed_out "timed out"
    | `Unanswered reason ->
      demote ~timeout:false Checkpoint.Quarantined ("could not answer (" ^ reason ^ ")")
    | `Transient msg ->
      if !transients < campaign.Campaign.retries then begin
        incr transients;
        again rung rest degraded
      end
      else
        finish Checkpoint.Quarantined mode Json.Null
          (Some (Printf.sprintf "transient failure persisted after %d retries: %s"
                   campaign.Campaign.retries msg))
    | `Crash msg ->
      incr crashes;
      Stabobs.Flight.notef "campaign: %s crashed on the %s rung (%d/%d): %s" label mode
        !crashes crash_budget msg;
      if !crashes >= crash_budget then
        finish Checkpoint.Quarantined mode Json.Null (Some msg)
      else again rung rest degraded
  in
  match Analysis.ladder cell.analysis with
  | [] -> assert false
  | first :: rest -> attempt first rest false

(* {1 The sharded pool} *)

let outcome_of_record ~from_checkpoint ~duration_ns cell (r : Checkpoint.record) =
  {
    cell;
    hash = r.Checkpoint.hash;
    status = r.Checkpoint.status;
    mode = r.Checkpoint.mode;
    retries = r.Checkpoint.retries;
    payload = r.Checkpoint.payload;
    error = r.Checkpoint.error;
    duration_ns;
    from_checkpoint;
  }

let append_with_retry options sink record =
  (* Result I/O is the transient-failure case the retry budget exists
     for; if the disk stays broken the cell is still held in memory and
     only the resume guarantee degrades. *)
  let rec go attempt =
    match Checkpoint.append sink record with
    | () -> ()
    | exception Sys_error msg ->
      if attempt >= 3 then
        Obs.errorf "campaign: dropping checkpoint record for %s: %s"
          record.Checkpoint.label msg
      else begin
        options.sleep (0.05 *. float_of_int (attempt + 1));
        go (attempt + 1)
      end
  in
  go 0

(* Dumps are forensics, not results: a full disk or unwritable
   directory must not fail the cell that triggered the dump. *)
let write_dump ~reason path =
  try Stabobs.Flight.dump_to ~reason path
  with exn ->
    Obs.warnf "campaign: failed to write flight dump %s: %s" path
      (Printexc.to_string exn)

let run ?options campaign =
  let options = match options with Some o -> o | None -> default_options () in
  Atomic.set drain_flag false;
  let cells = Array.of_list campaign.Campaign.cells in
  let n = Array.length cells in
  let finished =
    match options.checkpoint with
    | Some path when not options.fresh -> Checkpoint.index (Checkpoint.load path)
    | Some _ | None -> Hashtbl.create 0
  in
  let sink =
    Option.map
      (fun path ->
        Checkpoint.open_append ~fresh:options.fresh ~name:campaign.Campaign.name path)
      options.checkpoint
  in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let appended = Atomic.make 0 in
  let workers = max 1 (min options.domains (max n 1)) in
  let live = live_create ~name:campaign.Campaign.name ~total:n ~workers in
  Stabobs.Registry.Gauge.set g_cells_total n;
  Stabobs.Registry.Gauge.set g_cells_remaining n;
  Stabobs.Registry.Gauge.set g_workers workers;
  Stabobs.Registry.Label.set l_campaign campaign.Campaign.name;
  let settle () =
    Stabobs.Registry.Gauge.set g_cells_remaining (n - live_settled live)
  in
  let work w =
    let slot = live.v_slots.(w) in
    Atomic.set slot.s_domain (Domain.self () :> int);
    let continue = ref true in
    while !continue do
      if draining () then continue := false
      else begin
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let cell = cells.(i) in
          let hash = Campaign.cell_hash cell in
          match Hashtbl.find_opt finished hash with
          | Some r ->
            Obs.Counter.incr c_skipped;
            Atomic.incr live.v_skipped;
            settle ();
            results.(i) <- Some (outcome_of_record ~from_checkpoint:true ~duration_ns:0 cell r)
          | None -> (
            let label = Campaign.cell_label cell in
            let t0 = Obs.now_ns () in
            Atomic.set slot.s_cell (Some (label, t0));
            match
              Fun.protect
                ~finally:(fun () -> Atomic.set slot.s_cell None)
              @@ fun () ->
              Obs.with_tags
                [
                  ("cell", Json.String label);
                  ("cell_hash", Json.String hash);
                  ("worker", Json.Int w);
                ]
              @@ fun () ->
              Obs.span "campaign.cell" ~args:[ ("label", Json.String label) ]
                (fun () -> attempt_cell campaign options cell ~hash ~label)
            with
            | exception Drain_exit -> ()
            | r ->
              let duration_ns = Obs.now_ns () - t0 in
              Stabobs.Dist.record_int d_cell_duration duration_ns;
              Obs.Counter.incr (counter_of_status r.Checkpoint.status);
              Atomic.incr (live_counter live r.Checkpoint.status);
              Atomic.incr live.v_executed;
              ignore (Atomic.fetch_and_add live.v_executed_ns duration_ns);
              settle ();
              results.(i) <-
                Some (outcome_of_record ~from_checkpoint:false ~duration_ns cell r);
              (* Forensics before bookkeeping: a quarantined or
                 timed-out cell gets its own dump while the rings
                 still hold its final events, and the rolling dump is
                 refreshed after every settled cell so a later SIGKILL
                 leaves at most one cell unexplained. Both writes are
                 atomic-rename, so a kill mid-refresh cannot tear the
                 artifact. *)
              Option.iter
                (fun base ->
                  (match r.Checkpoint.status with
                  | Checkpoint.Quarantined | Checkpoint.Timed_out ->
                    let reason =
                      Printf.sprintf "cell %s: %s%s" label
                        (Checkpoint.status_to_string r.Checkpoint.status)
                        (match r.Checkpoint.error with
                        | None -> ""
                        | Some e -> ": " ^ e)
                    in
                    write_dump ~reason (cell_dump_path base hash)
                  | Checkpoint.Done | Checkpoint.Degraded -> ());
                  write_dump ~reason:"rolling" (rolling_dump_path base))
                options.flight;
              Option.iter
                (fun sink ->
                  append_with_retry options sink r;
                  let k = Atomic.fetch_and_add appended 1 + 1 in
                  match options.stop_after with
                  | Some limit when k >= limit -> request_drain ()
                  | _ -> ())
                sink)
        end
      end
    done
  in
  Obs.span "campaign.run"
    ~args:
      [
        ("name", Json.String campaign.Campaign.name);
        ("cells", Json.Int n);
        ("workers", Json.Int workers);
      ]
  @@ fun () ->
  let first = ref None in
  let note e = match !first with None -> first := Some e | Some _ -> () in
  (* Workers are pool tasks, not dedicated Domains: each pulls cells
     off the shared [next] queue until it drains, so surplus workers on
     a narrower pool just find the queue empty and return. The pool
     joins every task even when one raises (first exception wins);
     defer it until the checkpoint sink is closed. *)
  (try Pool.scatter workers work with e -> note e);
  Option.iter Checkpoint.close sink;
  Atomic.set live.v_finished (Obs.now_ns ());
  (match !first with Some e -> raise e | None -> ());
  let outcomes =
    Array.to_list results |> List.filter_map Fun.id
  in
  let count f = List.length (List.filter f outcomes) in
  let stats =
    {
      cells = n;
      executed = count (fun o -> not o.from_checkpoint);
      skipped = count (fun o -> o.from_checkpoint);
      unfinished = n - List.length outcomes;
      done_ = count (fun o -> o.status = Checkpoint.Done);
      degraded = count (fun o -> o.status = Checkpoint.Degraded);
      timed_out = count (fun o -> o.status = Checkpoint.Timed_out);
      quarantined = count (fun o -> o.status = Checkpoint.Quarantined);
      retried = List.fold_left (fun acc o -> acc + o.retries) 0 outcomes;
    }
  in
  (outcomes, stats)

(* {1 Reporting} *)

let payload_digest = function
  | Json.Null -> "-"
  | j ->
    let s = Json.to_string j in
    if String.length s <= 72 then s else String.sub s 0 69 ^ "..."

let report campaign outcomes =
  let t =
    Stabexp.Report.create
      ~title:(Printf.sprintf "campaign: %s" campaign.Campaign.name)
      ~columns:[ "cell"; "status"; "mode"; "retries"; "result" ]
  in
  List.iter
    (fun o ->
      Stabexp.Report.add_row t
        [
          Campaign.cell_label o.cell;
          Checkpoint.status_to_string o.status;
          o.mode;
          Stabexp.Report.cell_int o.retries;
          (match o.error with
          | Some e -> payload_digest (Json.String e)
          | None -> payload_digest o.payload);
        ])
    outcomes;
  t

let summary_line s =
  Printf.sprintf
    "%d cells: %d done, %d degraded, %d timed-out, %d quarantined; %d from \
     checkpoint, %d unfinished, %d retries"
    s.cells s.done_ s.degraded s.timed_out s.quarantined s.skipped s.unfinished
    s.retried
