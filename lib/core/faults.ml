let corrupt rng (p : 'a Protocol.t) cfg ~faults =
  if faults < 0 then invalid_arg "Faults.corrupt: negative fault count";
  let n = Array.length cfg in
  let out = Array.copy cfg in
  (* Choose the victims: a random subset of [faults] distinct
     processes, skipping those with singleton domains. *)
  let candidates =
    Array.of_list
      (List.filter (fun i -> List.length (p.Protocol.domain i) > 1) (List.init n Fun.id))
  in
  Stabrng.Rng.shuffle rng candidates;
  let victims = min faults (Array.length candidates) in
  for v = 0 to victims - 1 do
    let i = candidates.(v) in
    let others =
      List.filter (fun s -> not (p.Protocol.equal s out.(i))) (p.Protocol.domain i)
    in
    out.(i) <- List.nth others (Stabrng.Rng.int rng (List.length others))
  done;
  out

(* --- fault plans: injection schedules applied mid-run --- *)

type 'a plan = {
  plan_name : string;
  injector : unit -> Stabrng.Rng.t -> step:int -> cfg:'a array -> 'a array option;
      (* A plan is a recipe; [injector ()] arms one run's worth of
         mutable schedule state (burst cursors etc.), so one plan value
         can drive many independent runs. *)
}

let plan_name plan = plan.plan_name

let arm plan rng =
  let inject = plan.injector () in
  fun ~step ~cfg -> inject rng ~step ~cfg

let periodic p ~gap ~faults =
  if gap <= 0 then invalid_arg "Faults.periodic: gap must be positive";
  if faults <= 0 then invalid_arg "Faults.periodic: fault count must be positive";
  {
    plan_name = Printf.sprintf "periodic(gap=%d,k=%d)" gap faults;
    injector =
      (fun () rng ~step ~cfg ->
        if step > 0 && step mod gap = 0 then Some (corrupt rng p cfg ~faults) else None);
  }

let bernoulli p ~rate ~faults =
  if rate <= 0.0 || rate >= 1.0 then
    invalid_arg "Faults.bernoulli: rate outside (0, 1)";
  if faults <= 0 then invalid_arg "Faults.bernoulli: fault count must be positive";
  {
    plan_name = Printf.sprintf "bernoulli(rate=%g,k=%d)" rate faults;
    injector =
      (fun () rng ~step ~cfg ->
        if step > 0 && Stabrng.Rng.bernoulli rng rate then Some (corrupt rng p cfg ~faults)
        else None);
  }

let burst p ~at ~faults =
  if faults <= 0 then invalid_arg "Faults.burst: fault count must be positive";
  if List.exists (fun s -> s < 0) at then invalid_arg "Faults.burst: negative step";
  let schedule = List.sort_uniq compare at in
  {
    plan_name =
      Printf.sprintf "burst(at=%s,k=%d)"
        (String.concat "," (List.map string_of_int schedule))
        faults;
    injector =
      (fun () ->
        let remaining = ref schedule in
        fun rng ~step ~cfg ->
          match !remaining with
          | next :: rest when step >= next ->
            remaining := rest;
            Some (corrupt rng p cfg ~faults)
          | _ -> None);
  }

let adversarial space g spec ~gap ~faults =
  if gap <= 0 then invalid_arg "Faults.adversarial: gap must be positive";
  if faults <= 0 then invalid_arg "Faults.adversarial: fault count must be positive";
  let p = Statespace.protocol space in
  let legitimate = Statespace.legitimate_set space spec in
  (* The adversary's severity measure is the possible-convergence
     distance: how many steps even a friendly daemon needs back to [L]
     (max_int = unreachable, the worst corruption there is). Computed
     once from the packed graph and closed over by every armed run. *)
  let dist = Checker.best_case_steps space g ~legitimate in
  let severity cfg = dist.(Statespace.code space cfg) in
  let nproc = Array.length (Statespace.config space 0) in
  let inject_once cfg =
    (* Greedy corruption toward the configuration of maximal
       convergence radius: each of the [faults] memory flips picks the
       (process, value) pair maximizing the severity of the result,
       lowest process id / domain order breaking ties — deterministic,
       no randomness needed. *)
    let out = Array.copy cfg in
    for _ = 1 to faults do
      let best = ref None in
      for i = 0 to nproc - 1 do
        let original = out.(i) in
        List.iter
          (fun s ->
            if not (p.Protocol.equal s original) then begin
              out.(i) <- s;
              let sev = severity out in
              (match !best with
              | Some (best_sev, _, _) when best_sev >= sev -> ()
              | _ -> best := Some (sev, i, s));
              out.(i) <- original
            end)
          (p.Protocol.domain i)
      done;
      match !best with
      | Some (sev, i, s) when sev > severity out -> out.(i) <- s
      | _ -> () (* no single flip makes things worse; stop pushing *)
    done;
    if severity out > severity cfg then Some out else None
  in
  {
    plan_name = Printf.sprintf "adversarial(gap=%d,k=%d)" gap faults;
    injector =
      (fun () _rng ~step ~cfg ->
        if step > 0 && step mod gap = 0 then inject_once cfg else None);
  }

(* --- recovery and availability, optionally under a recurrent-fault plan --- *)

let recovery_profile ?plan ~runs ~max_steps rng protocol scheduler spec ~from ~faults =
  Stabobs.Obs.span "faults.recovery_profile" @@ fun () ->
  Montecarlo.estimate ?inject:(Option.map arm plan)
    ~init:(fun stream -> corrupt stream protocol from ~faults)
    ~runs ~max_steps rng protocol scheduler spec

let availability ~horizon rng protocol scheduler spec ~plan ~init =
  if horizon <= 0 then invalid_arg "Faults.availability: horizon must be positive";
  let inject = arm plan rng in
  let observed = ref 0 in
  let in_l = ref 0 in
  (* Observation rides the injection hook: the engine calls it exactly
     once per iteration with the pre-injection configuration, so the
     availability denominator is the number of observed configurations
     whatever stops the run. *)
  let observing ~step ~cfg =
    incr observed;
    if spec.Spec.legitimate cfg then incr in_l;
    inject ~step ~cfg
  in
  ignore
    (Engine.run ~record:false ~inject:observing ~max_steps:horizon rng protocol scheduler
       ~init);
  if !observed = 0 then 0.0 else float_of_int !in_l /. float_of_int !observed

let availability_profile ~runs ~horizon rng protocol scheduler spec ~plan ~init =
  if runs <= 0 then invalid_arg "Faults.availability_profile: runs must be positive";
  Stabobs.Obs.span "faults.availability_profile" @@ fun () ->
  Montecarlo.sample ~runs rng (fun stream ->
      availability ~horizon stream protocol (scheduler ()) spec ~plan ~init)
  |> Stabstats.Stats.summarize

(* --- crash faults, protocol view --- *)

let crash_protocol (p : 'a Protocol.t) ~failed =
  let n = Stabgraph.Graph.size p.Protocol.graph in
  if failed = [] then invalid_arg "Faults.crash_protocol: empty failed set";
  List.iter
    (fun f ->
      if f < 0 || f >= n then
        invalid_arg (Printf.sprintf "Faults.crash_protocol: process %d out of range" f))
    failed;
  let dead = Array.make n false in
  List.iter (fun f -> dead.(f) <- true) failed;
  {
    p with
    Protocol.name =
      Printf.sprintf "%s+crash[%s]" p.Protocol.name
        (String.concat "," (List.map string_of_int (List.sort_uniq compare failed)));
    actions =
      List.map
        (fun (a : 'a Protocol.action) ->
          { a with Protocol.guard = (fun cfg i -> (not dead.(i)) && a.Protocol.guard cfg i) })
        p.Protocol.actions;
  }
