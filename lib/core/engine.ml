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

let labelled_firings protocol cfg active =
  List.filter_map
    (fun p ->
      match Protocol.enabled_action protocol cfg p with
      | None -> None
      | Some a -> Some (p, a.Protocol.label))
    (List.sort compare active)

(* One guard pass per configuration. [idx.(p)] is the index in
   [actions] of the first action enabled at [p], or -1; the pass
   returns the number of enabled processes. The step's sampling, its
   event labels, the scheduler's [enabled] list and the round
   accounting all read these indexes, so no guard is evaluated twice
   on the same configuration. *)
let rec first_enabled actions cfg p i =
  if i = Array.length actions then -1
  else if actions.(i).Protocol.guard cfg p then i
  else first_enabled actions cfg p (i + 1)

let guard_pass actions cfg idx =
  let count = ref 0 in
  for p = 0 to Array.length idx - 1 do
    let a = first_enabled actions cfg p 0 in
    idx.(p) <- a;
    if a >= 0 then incr count
  done;
  !count

let rec enabled_list idx p acc =
  if p < 0 then acc else enabled_list idx (p - 1) (if idx.(p) >= 0 then p :: acc else acc)

let run ?(record = true) ?stop_on ?inject ~max_steps rng protocol scheduler ~init =
  let legitimate cfg =
    match stop_on with None -> false | Some spec -> spec.Spec.legitimate cfg
  in
  let actions = Array.of_list protocol.Protocol.actions in
  let n = Stabgraph.Graph.size protocol.Protocol.graph in
  let injections = ref 0 in
  (* Round bookkeeping: [pending.(p)] holds while [p] was enabled at
     the start of the current round and has neither fired nor been
     disabled since; [left] counts them. When it drains, a round has
     completed and the next one starts from the current enabled set.
     An injection does not reset the round. *)
  let pending = Array.make n false and left = ref 0 and rounds = ref 0 in
  let start_round idx enabled =
    for p = 0 to n - 1 do
      pending.(p) <- idx.(p) >= 0
    done;
    left := enabled
  in
  let rec retire_fired = function
    | [] -> ()
    | p :: rest ->
      if pending.(p) then begin
        pending.(p) <- false;
        decr left
      end;
      retire_fired rest
  in
  let account_round active next_idx next_enabled =
    retire_fired active;
    for p = 0 to n - 1 do
      if pending.(p) && next_idx.(p) < 0 then begin
        pending.(p) <- false;
        decr left
      end
    done;
    if !left = 0 then begin
      incr rounds;
      start_round next_idx next_enabled
    end
  in
  (* Each activated process that is enabled moves to one outcome of
     its action's statement, all reading [cfg], in the order the
     scheduler listed them. *)
  let rec sample cfg idx next = function
    | [] -> ()
    | p :: rest ->
      let a = idx.(p) in
      if a >= 0 then begin
        let action = actions.(a) in
        match action.Protocol.result cfg p with
        | [ (state, _) ] -> next.(p) <- state
        | dist ->
          Protocol.check_outcomes protocol action p dist;
          next.(p) <- Stabrng.Rng.pick_weighted rng dist
      end;
      sample cfg idx next rest
  in
  let fired idx active =
    List.filter_map
      (fun p -> if idx.(p) >= 0 then Some (p, actions.(idx.(p)).Protocol.label) else None)
      (List.sort compare active)
  in
  let finish cfg steps events stop =
    Stabobs.Obs.Counter.incr Stabobs.Obs.engine_runs;
    Stabobs.Obs.Counter.add Stabobs.Obs.engine_steps steps;
    Stabobs.Dist.record_int Stabobs.Dist.engine_run_steps steps;
    { trace = { init; events = List.rev events }; final = cfg; steps;
      rounds = !rounds; stop; injections = !injections }
  in
  (* [idx] holds the guard pass of [cfg] and [enabled] its count;
     [spare] receives the pass of the next configuration, and the two
     swap every step. *)
  let rec go cfg idx spare enabled steps events =
    if steps land 1023 = 0 then Cancel.poll ();
    if legitimate cfg then finish cfg steps events Converged
    else
      (* Fault injection point: once per iteration, before the daemon
         moves. The corruption replaces the configuration but consumes
         no step — faults are environment actions, not protocol steps. *)
      match inject with
      | None -> move cfg idx spare enabled steps events
      | Some hook -> (
        match hook ~step:steps ~cfg with
        | None -> move cfg idx spare enabled steps events
        | Some cfg' ->
          incr injections;
          Stabobs.Obs.Counter.incr Stabobs.Obs.fault_injections;
          move cfg' idx spare (guard_pass actions cfg' idx) steps events)
  and move cfg idx spare enabled steps events =
    if enabled = 0 then finish cfg steps events Terminal
    else if steps >= max_steps then finish cfg steps events Exhausted
    else
      match
        scheduler.Scheduler.choose rng ~step:steps ~cfg ~enabled:(enabled_list idx (n - 1) [])
      with
      | [] ->
        (* A crash-faulted scheduler with every enabled process
           silenced: the execution can no longer make progress. *)
        finish cfg steps events Stalled
      | active ->
        let next = Array.copy cfg in
        sample cfg idx next active;
        let next_enabled = guard_pass actions next spare in
        account_round active spare next_enabled;
        let events =
          if record then { before = cfg; fired = fired idx active; after = next } :: events
          else events
        in
        go next spare idx next_enabled (steps + 1) events
  in
  let cfg = Array.copy init in
  let idx = Array.make n (-1) in
  let enabled = guard_pass actions cfg idx in
  start_round idx enabled;
  go cfg idx (Array.make n (-1)) enabled 0 []

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
