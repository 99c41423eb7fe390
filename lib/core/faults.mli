(** Transient-fault injection and the resilience lab's fault models.

    Self-stabilization is exactly resilience to transient memory
    corruption: a fault flips some process memories to arbitrary
    values, and the protocol must recover. This module covers three
    fault models:

    - {b one-shot corruption} ({!corrupt}): the classic k-stabilization
      setting — corrupt a configuration once, before the run;
    - {b fault plans} ({!plan}): injection schedules applied {e during}
      a run through the {!Engine.run} hook — periodic, Bernoulli,
      burst, and a graph-guided adversarial schedule — modelling the
      "unsupportive environments" of Dolev-Herman, where faults recur
      and the interesting quantity is availability (fraction of time in
      [L]) rather than one recovery time;
    - {b crash faults} ({!crash_protocol}, {!Scheduler.crash}):
      processes that stop executing, permanently or intermittently. *)

val corrupt :
  Stabrng.Rng.t -> 'a Protocol.t -> 'a array -> faults:int -> 'a array
(** [corrupt rng p cfg ~faults] returns a fresh configuration with
    exactly [min faults n] distinct processes reassigned a {e
    different} uniformly random state from their domain (a process
    whose domain is a singleton cannot be corrupted and is skipped).
    The input is not modified. *)

(** {1 Fault plans: in-run injection schedules}

    A plan decides, at every engine iteration, whether to corrupt the
    current configuration. Plans are recipes: {!arm} instantiates one
    run's worth of schedule state, so a single plan value can drive
    many independent runs. *)

type 'a plan

val plan_name : 'a plan -> string

val arm :
  'a plan -> Stabrng.Rng.t -> step:int -> cfg:'a array -> 'a array option
(** [arm plan rng] is the injection hook for one run, ready to pass as
    {!Engine.run}'s [inject] argument. *)

val periodic : 'a Protocol.t -> gap:int -> faults:int -> 'a plan
(** Corrupt [faults] memories every [gap] steps (at steps [gap], [2
    gap], ...). The fault gap is the knob of the availability curves:
    recovery is only possible if the protocol stabilizes faster than
    faults arrive. *)

val bernoulli : 'a Protocol.t -> rate:float -> faults:int -> 'a plan
(** Each step independently suffers a [faults]-memory corruption with
    probability [rate] (in (0, 1)) — a memoryless unsupportive
    environment with mean fault gap [1/rate]. *)

val burst : 'a Protocol.t -> at:int list -> faults:int -> 'a plan
(** One [faults]-memory corruption at each step of [at] (deduplicated,
    sorted; a scheduled step skipped because the run was already past
    it fires at the next opportunity). *)

val adversarial :
  'a Statespace.t -> Checker.graph -> 'a Spec.t -> gap:int -> faults:int -> 'a plan
(** The timing adversary of the Dolev-Herman setting, made concrete
    with the packed transition graph: every [gap] steps it re-corrupts
    up to [faults] memories, greedily flipping the (process, value)
    pair that maximizes the possible-convergence distance to [L]
    ({!Checker.best_case_steps}; unreachable counts as infinite) — i.e.
    it pushes the system toward the configuration of maximal
    convergence radius it can reach within its fault budget. Injections
    that cannot increase the distance are skipped. Deterministic. *)

(** {1 Recovery and availability} *)

val recovery_profile :
  ?plan:'a plan ->
  runs:int ->
  max_steps:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  (unit -> 'a Scheduler.t) ->
  'a Spec.t ->
  from:'a array ->
  faults:int ->
  Montecarlo.result
(** [recovery_profile ~runs ~max_steps rng p scheduler spec ~from
    ~faults] is {!Montecarlo.estimate} from [from] (assumed legitimate)
    corrupted by [faults] faults, a fresh corruption drawn from each
    run's own stream: the time to re-reach [L], over independent
    corruption draws and scheduler randomness. With [plan], the plan
    keeps injecting while the system recovers (armed per run with
    {!arm}): time to first re-entry of [L] under recurrent faults. *)

val availability_profile :
  runs:int ->
  horizon:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  (unit -> 'a Scheduler.t) ->
  'a Spec.t ->
  plan:'a plan ->
  init:'a array ->
  Stabstats.Stats.summary
(** Availability over [runs] independent runs, each with its own
    stream and daemon ([scheduler ()]), sampled through
    {!Montecarlo.sample}: the same summary at every pool width. A run
    lasts [horizon] steps under the plan (no convergence stopping) and
    measures the fraction of its observed configurations (one per
    engine iteration) that lie in [L] — the paper's
    closure-and-convergence pair turned into an uptime number. *)

(** {1 Crash faults} *)

val crash_protocol : 'a Protocol.t -> failed:int list -> 'a Protocol.t
(** [crash_protocol p ~failed] is the sub-protocol induced by
    permanently crashing the processes of [failed]: their guards never
    hold, so they never execute — the state space is unchanged but the
    transition relation loses every step involving them. Feed the
    result to {!Statespace.build} and {!Checker.analyze} to decide
    exhaustively whether stabilization survives the crashes (the
    Dolev-Herman question). Raises [Invalid_argument] on an empty or
    out-of-range failed set. *)
