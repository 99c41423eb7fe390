open Stabcore

(* Round bookkeeping: the frontier holds the processes enabled at the
   start of the current round that have not yet fired or been
   disabled. When it drains, a round has completed and the next one
   starts from the current enabled set. *)
type round_tracker = { mutable frontier : int list; mutable completed : int }

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
  let tracker =
    { frontier = Protocol.enabled_processes protocol (Array.copy init); completed = 0 }
  in
  let finish cfg steps events stop =
    {
      Engine.trace = { Engine.init; events = List.rev events };
      final = cfg;
      steps;
      rounds = tracker.completed;
      stop;
      injections = !injections;
    }
  in
  let rec go cfg steps events =
    if legitimate cfg then finish cfg steps events Engine.Converged
    else begin
      let cfg =
        match inject with
        | None -> cfg
        | Some hook -> (
          match hook ~step:steps ~cfg with
          | None -> cfg
          | Some cfg' ->
            incr injections;
            cfg')
      in
      match Protocol.enabled_processes protocol cfg with
      | [] -> finish cfg steps events Engine.Terminal
      | enabled ->
        if steps >= max_steps then finish cfg steps events Engine.Exhausted
        else begin
          match scheduler.Scheduler.choose rng ~step:steps ~cfg ~enabled with
          | [] -> finish cfg steps events Engine.Stalled
          | active ->
            let next = Protocol.step_sample rng protocol cfg active in
            advance_round tracker ~fired:active
              ~enabled_now:(Protocol.enabled_processes protocol next);
            let events =
              if record then
                { Engine.before = cfg; fired = labelled_firings protocol cfg active; after = next }
                :: events
              else events
            in
            go next (steps + 1) events
        end
    end
  in
  go (Array.copy init) 0 []
