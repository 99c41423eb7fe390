type 'a event = {
  before : 'a array;
  fired : (int * string) list;
  after : 'a array;
}

type 'a trace = { init : 'a array; events : 'a event list }

type stop_reason = Converged | Terminal | Exhausted | Stalled

type 'a run = {
  trace : 'a trace;
  final : 'a array;
  steps : int;
  rounds : int;
  stop : stop_reason;
  injections : int;
}

(* Round bookkeeping: the frontier holds the processes enabled at the
   start of the current round that have not yet fired or been
   disabled. When it drains, a round has completed and the next one
   starts from the current enabled set. *)
type round_tracker = { mutable frontier : int list; mutable completed : int }

let new_round_tracker enabled = { frontier = enabled; completed = 0 }

let advance_round tracker ~fired ~enabled_now =
  let surviving =
    List.filter
      (fun p -> (not (List.mem p fired)) && List.mem p enabled_now)
      tracker.frontier
  in
  if surviving = [] then begin
    tracker.completed <- tracker.completed + 1;
    tracker.frontier <- enabled_now
  end
  else tracker.frontier <- surviving

let labelled_firings protocol cfg active =
  List.filter_map
    (fun p ->
      match Protocol.enabled_action protocol cfg p with
      | None -> None
      | Some a -> Some (p, a.Protocol.label))
    (List.sort compare active)

let run ?(record = true) ?stop_on ?inject ~max_steps rng protocol scheduler ~init =
  let legitimate cfg =
    match stop_on with None -> false | Some spec -> spec.Spec.legitimate cfg
  in
  let injections = ref 0 in
  let tracker = new_round_tracker (Protocol.enabled_processes protocol (Array.copy init)) in
  let finish cfg steps events stop =
    Stabobs.Obs.Counter.incr Stabobs.Obs.engine_runs;
    Stabobs.Obs.Counter.add Stabobs.Obs.engine_steps steps;
    Stabobs.Dist.record_int Stabobs.Dist.engine_run_steps steps;
    { trace = { init; events = List.rev events }; final = cfg; steps;
      rounds = tracker.completed; stop; injections = !injections }
  in
  let rec go cfg steps events =
    if steps land 1023 = 0 then Cancel.poll ();
    if legitimate cfg then finish cfg steps events Converged
    else begin
      (* Fault injection point: once per iteration, before the daemon
         moves. The corruption replaces the configuration but consumes
         no step — faults are environment actions, not protocol steps. *)
      let cfg =
        match inject with
        | None -> cfg
        | Some hook -> (
          match hook ~step:steps ~cfg with
          | None -> cfg
          | Some cfg' ->
            incr injections;
            Stabobs.Obs.Counter.incr Stabobs.Obs.fault_injections;
            cfg')
      in
      match Protocol.enabled_processes protocol cfg with
      | [] -> finish cfg steps events Terminal
      | enabled ->
        if steps >= max_steps then finish cfg steps events Exhausted
        else begin
          match scheduler.Scheduler.choose rng ~step:steps ~cfg ~enabled with
          | [] ->
            (* A crash-faulted scheduler with every enabled process
               silenced: the execution can no longer make progress. *)
            finish cfg steps events Stalled
          | active ->
            let next = Protocol.step_sample rng protocol cfg active in
            advance_round tracker ~fired:active
              ~enabled_now:(Protocol.enabled_processes protocol next);
            let events =
              if record then
                { before = cfg; fired = labelled_firings protocol cfg active; after = next }
                :: events
              else events
            in
            go next (steps + 1) events
        end
    end
  in
  go (Array.copy init) 0 []

let convergence_cost ?inject ~max_steps rng protocol scheduler spec ~init =
  let result =
    run ~record:false ~stop_on:spec ?inject ~max_steps rng protocol scheduler ~init
  in
  match result.stop with
  | Converged -> Some (result.steps, result.rounds)
  | Terminal | Exhausted | Stalled -> None

let replay protocol ~init script =
  if protocol.Protocol.randomized then
    invalid_arg "Engine.replay: protocol is randomized; replay requires determinism";
  let step cfg active =
    if active = [] then invalid_arg "Engine.replay: empty step";
    List.iter
      (fun p ->
        if not (Protocol.is_enabled protocol cfg p) then
          invalid_arg
            (Printf.sprintf "Engine.replay: process %d not enabled at scripted step" p))
      active;
    match Protocol.step_outcomes protocol cfg active with
    | [ (next, _) ] -> next
    | _ -> invalid_arg "Engine.replay: non-deterministic step"
  in
  let _, events =
    List.fold_left
      (fun (cfg, events) active ->
        let next = step cfg active in
        (next, { before = cfg; fired = labelled_firings protocol cfg active; after = next } :: events))
      (Array.copy init, [])
      script
  in
  { init = Array.copy init; events = List.rev events }

let final_config trace =
  match List.rev trace.events with [] -> trace.init | last :: _ -> last.after

let configs trace = trace.init :: List.map (fun e -> e.after) trace.events
