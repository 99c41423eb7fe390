(** Execution engine: runs, traces, and scripted replays.

    An execution of the transition system (paper Section 2) is a
    maximal sequence of steps; each step activates a non-empty subset
    of enabled processes chosen by a scheduler. The engine produces
    finite prefixes, optionally recording every step as an event for
    trace rendering and fairness analysis. *)

type 'a event = {
  before : 'a array;
  fired : (int * string) list;  (** process id, action label — sorted by id *)
  after : 'a array;
}

type 'a trace = { init : 'a array; events : 'a event list }

type stop_reason =
  | Converged  (** reached a legitimate configuration of the spec *)
  | Terminal  (** reached a terminal configuration not in [L] *)
  | Exhausted  (** hit the step budget *)
  | Stalled
      (** the scheduler returned the empty set — only crash-faulted
          schedulers ({!Scheduler.crash}) do this, when every enabled
          process is permanently silenced *)

type 'a run = {
  trace : 'a trace;
  final : 'a array;
  steps : int;
  rounds : int;
      (** Completed asynchronous rounds: a round ends once every process
          enabled at its start has fired or become disabled since — the
          standard complexity measure for stabilizing protocols. *)
  stop : stop_reason;
  injections : int;
      (** Faults injected by the [inject] hook during this run; 0 when
          no hook was given. *)
}

val run :
  ?record:bool ->
  ?stop_on:'a Spec.t ->
  ?inject:(step:int -> cfg:'a array -> 'a array option) ->
  max_steps:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  'a Scheduler.t ->
  init:'a array ->
  'a run
(** [run ~max_steps rng protocol scheduler ~init] executes until the
    spec's legitimate set is reached ([stop_on], if given), a terminal
    configuration is reached, or [max_steps] steps have been taken.
    With [record:false] (default [true]) the trace contains no events,
    which keeps long Monte-Carlo runs allocation-light.

    [inject] is the in-run fault hook (see {!Faults.plan}): it is called
    once per iteration — after the [stop_on] check, before the scheduler
    moves — with the step counter and the current configuration.
    Returning [Some cfg'] replaces the configuration without consuming a
    step; the replacement is counted in [injections]. A corrupted
    configuration is observable by the scheduler the same step. *)

val convergence_cost :
  ?inject:(step:int -> cfg:'a array -> 'a array option) ->
  max_steps:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  'a Scheduler.t ->
  'a Spec.t ->
  init:'a array ->
  (int * int) option
(** [(steps, rounds)] needed to first hit the legitimate set, or
    [None] if the budget runs out first. A terminal illegitimate
    configuration also yields [None]. *)

val replay : 'a Protocol.t -> init:'a array -> int list list -> 'a trace
(** [replay protocol ~init script] executes the exact step sequence
    [script] (each element the list of processes activated at that
    step). Raises [Invalid_argument] if a scripted process is not
    enabled, a scripted step is empty, or the protocol is randomized
    (replays must be deterministic). Used to reproduce the paper's
    Figure 1 and Figure 2 executions verbatim. *)

val final_config : 'a trace -> 'a array
(** Last configuration of the trace ([init] if no events). *)

val configs : 'a trace -> 'a array list
(** [init] followed by each event's [after]. *)
