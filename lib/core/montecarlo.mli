(** Monte-Carlo estimation of stabilization times.

    For system sizes beyond exhaustive Markov analysis, stabilization
    times are estimated by repeated simulation from uniformly random
    initial configurations (the arbitrary initial configuration of
    Definitions 1-3). Runs that exhaust their step budget are counted
    separately — under the theorems' hypotheses their frequency
    vanishes as the budget grows.

    Every sampler in the library runs through {!sample}: the runs are
    scheduled over the shared {!Pool}, and the sample is the same at
    every pool width. *)

type result = {
  times : int array;  (** converged runs only, in steps *)
  rounds : int array;  (** same runs, in asynchronous rounds *)
  timeouts : int;  (** runs that hit the budget *)
  summary : Stabstats.Stats.summary option;  (** steps; [None] if nothing converged *)
  rounds_summary : Stabstats.Stats.summary option;
}

val sample : runs:int -> Stabrng.Rng.t -> (Stabrng.Rng.t -> 'b) -> 'b array
(** [sample ~runs rng f] is [[| f s_0; ...; f s_(runs-1) |]], where
    the streams [s_r] are split off [rng] in run order before any run
    is scheduled. The runs execute in parallel across the {!Pool}
    (one plain loop at width 1); each one's outcome is a pure function
    of its stream, so the result is identical at every pool width.
    [f] must not share mutable state between runs. Cancellation and
    failures follow {!Pool.parallel_for}. *)

val estimate :
  ?inject:(Stabrng.Rng.t -> step:int -> cfg:'a array -> 'a array option) ->
  ?init:(Stabrng.Rng.t -> 'a array) ->
  runs:int ->
  max_steps:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  (unit -> 'a Scheduler.t) ->
  'a Spec.t ->
  result
(** [estimate ~runs ~max_steps rng protocol scheduler spec] samples
    [runs] independent executions through {!sample}. Each run draws
    its initial configuration with [init] from its own stream (default:
    uniformly random; pass [fun _ -> c] to always start from [c]) and
    runs under its own daemon, [scheduler ()] — so stateful daemons
    such as {!Scheduler.round_robin} start afresh every run.

    [inject] arms a per-run fault-injection hook: it receives the
    run's own RNG stream and the result is passed to
    {!Engine.convergence_cost}'s [inject] — pass [Faults.arm plan] to
    estimate convergence under recurrent faults. *)

val of_samples : times:int array -> rounds:int array -> timeouts:int -> result
(** Assemble a result from raw samples — for samplers living outside
    the {!Engine} (e.g. the Israeli-Jalfon token-level simulator). *)

val pp_result : Format.formatter -> result -> unit
