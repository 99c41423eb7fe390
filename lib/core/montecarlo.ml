type result = {
  times : int array;
  rounds : int array;
  timeouts : int;
  summary : Stabstats.Stats.summary option;
  rounds_summary : Stabstats.Stats.summary option;
}

let of_samples ~times ~rounds ~timeouts =
  let summarize arr =
    if Array.length arr = 0 then None else Some (Stabstats.Stats.summarize_ints arr)
  in
  {
    times;
    rounds;
    timeouts;
    summary = summarize times;
    rounds_summary = summarize rounds;
  }

(* One stream per run is split off [rng] in run order BEFORE anything
   is scheduled, so run [r]'s outcome is a pure function of its stream
   and the sample is the same at every pool width. Each run draws from
   a fresh copy: the pre-split stream has aged into the major heap by
   the time its run starts, and every draw would promote boxed state
   into it. The pool propagates the caller's cancellation token into
   every chunk and joins all of them even when one raises. *)
let sample ~runs rng f =
  if runs < 0 then invalid_arg "Montecarlo.sample: negative run count";
  let streams = Array.init runs (fun _ -> Stabrng.Rng.split rng) in
  Pool.map_ranges runs (fun ~lo ~hi ->
      Array.init (hi - lo) (fun i ->
          Cancel.poll ();
          f (Stabrng.Rng.copy streams.(lo + i))))
  |> Array.concat

(* [inject] is an armer, not a hook: each run hands it the run's own
   stream and gets a fresh per-run injection hook back, so one fault
   plan (see Faults.arm) drives every sample independently. *)
let estimate ?inject ?init ~runs ~max_steps rng protocol scheduler spec =
  Stabobs.Obs.span "montecarlo.estimate" @@ fun () ->
  let init =
    match init with Some f -> f | None -> fun s -> Protocol.random_config s protocol
  in
  let out =
    sample ~runs rng (fun stream ->
        Stabobs.Obs.Counter.incr Stabobs.Obs.montecarlo_runs;
        let init = init stream in
        let inject = Option.map (fun arm -> arm stream) inject in
        Engine.convergence_cost ?inject ~max_steps stream protocol (scheduler ()) spec
          ~init)
  in
  let converged = Array.of_list (List.filter_map Fun.id (Array.to_list out)) in
  of_samples ~times:(Array.map fst converged) ~rounds:(Array.map snd converged)
    ~timeouts:(runs - Array.length converged)

let pp_result fmt r =
  match (r.summary, r.rounds_summary) with
  | None, _ | _, None ->
    Format.fprintf fmt "no converged runs (%d timeouts)" r.timeouts
  | Some s, Some rs ->
    Format.fprintf fmt "steps: %a; rounds: %a; timeouts: %d" Stabstats.Stats.pp_summary s
      Stabstats.Stats.pp_summary rs r.timeouts
