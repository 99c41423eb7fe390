type 'a t = {
  name : string;
  choose : Stabrng.Rng.t -> step:int -> cfg:'a array -> enabled:int list -> int list;
}

let central_random () =
  {
    name = "central-random";
    choose = (fun rng ~step:_ ~cfg:_ ~enabled -> [ Stabrng.Rng.choice_list rng enabled ]);
  }

let distributed_random () =
  {
    name = "distributed-random";
    choose = (fun rng ~step:_ ~cfg:_ ~enabled -> Stabrng.Rng.nonempty_subset rng enabled);
  }

let synchronous () =
  { name = "synchronous"; choose = (fun _ ~step:_ ~cfg:_ ~enabled -> enabled) }

let central_first () =
  {
    name = "central-first";
    choose =
      (fun _ ~step:_ ~cfg:_ ~enabled ->
        match enabled with
        | [] -> invalid_arg "Scheduler.central_first: no enabled process"
        | p :: _ -> [ p ]);
  }

let round_robin () =
  let cursor = ref 0 in
  {
    name = "round-robin";
    choose =
      (fun _ ~step:_ ~cfg:_ ~enabled ->
        match enabled with
        | [] -> invalid_arg "Scheduler.round_robin: no enabled process"
        | _ ->
          (* First enabled process at or after the cursor, wrapping. *)
          let after = List.filter (fun p -> p >= !cursor) enabled in
          let chosen = match after with p :: _ -> p | [] -> List.hd enabled in
          cursor := chosen + 1;
          [ chosen ]);
  }

let adversary ~name strategy =
  {
    name;
    choose =
      (fun _ ~step:_ ~cfg ~enabled ->
        let chosen = strategy cfg enabled in
        if chosen = [] then invalid_arg (name ^ ": adversary chose the empty set");
        List.iter
          (fun p ->
            if not (List.mem p enabled) then
              invalid_arg (name ^ ": adversary chose a disabled process"))
          chosen;
        chosen);
  }

let crash ?(wake_p = 0.0) ~failed sched =
  if not (wake_p >= 0.0 && wake_p < 1.0) then
    invalid_arg "Scheduler.crash: wake_p outside [0, 1)";
  if failed = [] then invalid_arg "Scheduler.crash: empty failed set";
  let tag =
    Printf.sprintf "%s+crash[%s]%s" sched.name
      (String.concat "," (List.map string_of_int failed))
      (if wake_p > 0.0 then Printf.sprintf "(wake=%g)" wake_p else "")
  in
  {
    name = tag;
    choose =
      (fun rng ~step ~cfg ~enabled ->
        (* Enabled processes the crashed set currently silences. For an
           intermittent crash (wake_p > 0) each crashed process gets an
           independent per-step wake draw; draws are redone until some
           process survives, so intermittently-crashed systems never
           stall — they only slow down. A permanent crash (wake_p = 0)
           with every enabled process silenced returns [] and the engine
           reports the run as [Stalled]. *)
        let survivors () =
          List.filter
            (fun p ->
              (not (List.mem p failed)) || (wake_p > 0.0 && Stabrng.Rng.bernoulli rng wake_p))
            enabled
        in
        let rec draw () =
          match survivors () with
          | [] -> if wake_p > 0.0 then draw () else []
          | alive -> sched.choose rng ~step ~cfg ~enabled:alive
        in
        draw ());
  }
