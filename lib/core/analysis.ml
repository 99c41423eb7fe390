type question = Check | Markov | Montecarlo
type rung = Exact_rung | Onthefly_rung | Montecarlo_rung

let rung_label = function
  | Exact_rung -> "exact"
  | Onthefly_rung -> "onthefly"
  | Montecarlo_rung -> "montecarlo"

let ladder = function
  | Check -> [ Exact_rung; Onthefly_rung; Montecarlo_rung ]
  | Markov -> [ Exact_rung; Montecarlo_rung ]
  | Montecarlo -> [ Montecarlo_rung ]

let randomization = function
  | Statespace.Central -> Markov.Central_uniform
  | Statespace.Distributed -> Markov.Distributed_uniform
  | Statespace.Synchronous -> Markov.Sync

let scheduler : type a. Statespace.sched_class -> unit -> a Scheduler.t = function
  | Statespace.Central -> Scheduler.central_random
  | Statespace.Distributed -> Scheduler.distributed_random
  | Statespace.Synchronous -> Scheduler.synchronous

type 'a instance = {
  protocol : 'a Protocol.t;
  spec : 'a Spec.t;
  relabel : (perm:int array -> int -> 'a -> 'a) option;
  space : ('a Statespace.t, string) result Lazy.t;
}

(* The full space, unbounded: building it only sizes the encoding, and
   fails only when the encoding overflows an int. *)
let instance ?relabel (protocol : 'a Protocol.t) spec =
  let space =
    lazy
      (match Statespace.build ~max_configs:max_int protocol with
      | space -> Ok space
      | exception Invalid_argument msg -> Error msg)
  in
  { protocol; spec; relabel; space }

type 'a inits = Inits of 'a array list | Random_inits of int

type 'a request = {
  instance : 'a instance;
  cls : Statespace.sched_class;
  max_configs : int;
  quotient : bool;
  inits : 'a inits;
  seed : int;
  runs : int;
  max_steps : int;
  inject : (Stabrng.Rng.t -> step:int -> cfg:'a array -> 'a array option) option;
  hitting : Markov.hitting_method option;
}

let request ?(max_configs = 2_000_000) ?(quotient = false) ?(inits = Random_inits 5)
    ?(seed = 42) ?(runs = 400) ?(max_steps = 1_000_000) ?inject ?hitting instance cls =
  { instance; cls; max_configs; quotient; inits; seed; runs; max_steps; inject; hitting }

type 'a plan = Fits of 'a Statespace.t | Over_budget of 'a Statespace.t | Too_large of string

(* The ladder explores on the fly only up to 10^9 configurations and
   samples larger spaces; an explicit [reachable] has no such limit. *)
let plan req =
  match Lazy.force req.instance.space with
  | Error reason -> Too_large reason
  | Ok space when Statespace.count space > 1_000_000_000 ->
    Too_large
      (Printf.sprintf "%d configurations exceed the on-the-fly budget of 10^9"
         (Statespace.count space))
  | Ok space when Statespace.count space <= req.max_configs -> Fits space
  | Ok space -> Over_budget space

(* The full space within the exact budget, quotiented when asked. *)
let exact_space req =
  let { relabel; space; _ } = req.instance in
  match Lazy.force space with
  | Error _ as e -> e
  | Ok space when Statespace.count space > req.max_configs ->
    Error
      (Printf.sprintf "%d configurations exceed the exact budget of %d"
         (Statespace.count space) req.max_configs)
  | Ok space -> Ok (if req.quotient then Statespace.quotient ?relabel space else space)

let verdicts req =
  Result.map
    (fun space -> (space, Checker.analyze space req.cls req.instance.spec))
    (exact_space req)

type hitting = (Markov.hitting_stats * Markov.solve_outcome option, int) result

let chain ?(keep_nonconverged = false) req =
  Result.bind (exact_space req) (fun space ->
      let legitimate = Statespace.legitimate_set space req.instance.spec in
      let chain = Markov.of_space space (randomization req.cls) in
      let weights = Statespace.orbit_sizes space in
      match Markov.hitting_stats_result ?method_:req.hitting ?weights chain ~legitimate with
      | Ok (_, Some (Markov.Max_sweeps s)) when not keep_nonconverged ->
        Error
          (Printf.sprintf "sparse solver hit its sweep budget (%d sweeps, %d blocks)"
             s.Markov.sweeps s.Markov.blocks)
      | hitting -> Ok (space, hitting))

let reachable req =
  let { protocol; spec; space; _ } = req.instance in
  let inits =
    match req.inits with
    | Inits l -> l
    | Random_inits k ->
      let rng = Stabrng.Rng.create req.seed in
      List.init k (fun _ -> Protocol.random_config rng protocol)
  in
  match (Lazy.force space, inits) with
  | (Error _ as e), _ -> e
  | Ok _, [] -> Error "no initial configurations for on-the-fly analysis"
  | Ok space, _ ->
    (* The exact budget also caps the exploration's hash table. *)
    Ok (space, Onthefly.analyze ~max_states:req.max_configs space req.cls spec ~inits)

let simulate req =
  let { protocol; spec; _ } = req.instance in
  let rng = Stabrng.Rng.create req.seed in
  Montecarlo.estimate ?inject:req.inject ~runs:req.runs ~max_steps:req.max_steps rng
    protocol (scheduler req.cls) spec

type 'a answer =
  | Verdicts of { space : 'a Statespace.t; verdict : Checker.verdict }
  | Chain of { space : 'a Statespace.t; hitting : hitting }
  | Reachable of { inits : int; result : Onthefly.analysis }
  | Simulated of Montecarlo.result

let attempt req question rung =
  match (question, rung) with
  | Check, Exact_rung ->
    Result.map (fun (space, verdict) -> Verdicts { space; verdict }) (verdicts req)
  | Markov, Exact_rung ->
    Result.map (fun (space, hitting) -> Chain { space; hitting }) (chain req)
  | Montecarlo, Exact_rung -> Error "a Monte-Carlo question has no exact answer"
  | _, Onthefly_rung -> (
    match plan req with
    | Too_large reason -> Error reason
    | Fits _ | Over_budget _ ->
      let inits = match req.inits with Inits l -> List.length l | Random_inits k -> k in
      Result.map (fun (_, result) -> Reachable { inits; result }) (reachable req))
  | _, Montecarlo_rung -> Ok (Simulated (simulate req))
