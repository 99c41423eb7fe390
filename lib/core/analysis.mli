(** The analysis ladder: one stabilization question, answered at the
    strongest fidelity the budgets allow.

    Possible convergence (weak stabilization), certain convergence
    (self-stabilization) and probability-1 convergence (Theorem 7) are
    answered on one of three rungs: exact ({!Checker} or the {!Markov}
    chain over the whole space), on-the-fly ({!Onthefly} exploration
    from initial configurations) and Monte-Carlo ({!Montecarlo} under
    the class's randomized daemon). A rung that cannot answer says why
    and the ladder demotes: the exact rung when the space exceeds the
    budget or a sparse solve exhausts its sweep budget, the on-the-fly
    rung past 10^9 configurations or when there are no initial
    configurations. This module is the only place that knows the rungs,
    their order, these rules and the class maps; the campaign runner
    walks the ladder with {!attempt}, and the CLI asks one rung through
    the typed entry points. *)

type question = Check | Markov | Montecarlo
type rung = Exact_rung | Onthefly_rung | Montecarlo_rung

val rung_label : rung -> string
(** ["exact"], ["onthefly"], ["montecarlo"]: the checkpoint mode labels. *)

val ladder : question -> rung list
(** [Check]: all three rungs. [Markov]: exact, then Monte-Carlo
    (hitting times need the whole chain). [Montecarlo]: one rung. *)

val randomization : Statespace.sched_class -> Markov.randomization
(** The uniform randomized daemon of a class (Definition 6). *)

val scheduler : Statespace.sched_class -> unit -> 'a Scheduler.t
(** The same daemon's simulation scheduler constructor, ready for
    {!Montecarlo.estimate}. *)

type 'a instance
(** A protocol and its specification. The full space is built on first
    use (from one domain at a time) and shared by every request on the
    instance, so questions about one space share the expansion. *)

val instance :
  ?relabel:(perm:int array -> int -> 'a -> 'a) -> 'a Protocol.t -> 'a Spec.t -> 'a instance
(** [relabel] as for {!Statespace.quotient}. *)

type 'a inits = Inits of 'a array list | Random_inits of int
type 'a request

val request :
  ?max_configs:int ->
  ?quotient:bool ->
  ?inits:'a inits ->
  ?seed:int ->
  ?runs:int ->
  ?max_steps:int ->
  ?inject:(Stabrng.Rng.t -> step:int -> cfg:'a array -> 'a array option) ->
  ?hitting:Markov.hitting_method ->
  'a instance ->
  Statespace.sched_class ->
  'a request
(** [max_configs] (default 2_000_000) is the exact budget and the
    on-the-fly state budget. [quotient] analyses the symmetry quotient
    on the exact rung. The on-the-fly rung starts from [inits] (default
    [Random_inits 5]). Every rung draws from a fresh stream of [seed]
    (default 42). The Monte-Carlo rung samples [runs] (default 400)
    runs of at most [max_steps] (default 1_000_000) steps, with
    {!Montecarlo.estimate}'s [inject]. [hitting] picks the solver. *)

(** The size planner: within [max_configs]; encodable but too large to
    enumerate; beyond the ladder's on-the-fly limit of 10^9
    configurations (or beyond the encoding), with the reason. *)
type 'a plan = Fits of 'a Statespace.t | Over_budget of 'a Statespace.t | Too_large of string

val plan : 'a request -> 'a plan

(** {1 Answers on one rung, or why not} *)

val verdicts : 'a request -> ('a Statespace.t * Checker.verdict, string) result
(** Exact; the space is the quotient when one was asked for and the
    group is nontrivial. Refuses a space over [max_configs]. *)

type hitting = (Markov.hitting_stats * Markov.solve_outcome option, int) result
(** Orbit-weighted on a quotient; [Error c]: [L] is unreachable from
    state [c]. *)

val chain :
  ?keep_nonconverged:bool -> 'a request -> ('a Statespace.t * hitting, string) result
(** Exact. Refuses a space over [max_configs], and a sparse solve that
    exhausted its sweep budget unless [keep_nonconverged] (default
    [false]; the outcome then says so). *)

val reachable : 'a request -> ('a Statespace.t * Onthefly.analysis, string) result
(** One exploration from the initial configurations within
    [max_configs] states. Refuses only no initial configurations or an
    encoding that overflows an int, so unlike the ladder's on-the-fly
    rung it explores spaces past 10^9 configurations. *)

val simulate : 'a request -> Montecarlo.result

type 'a answer =
  | Verdicts of { space : 'a Statespace.t; verdict : Checker.verdict }
  | Chain of { space : 'a Statespace.t; hitting : hitting }
  | Reachable of { inits : int; result : Onthefly.analysis }
  | Simulated of Montecarlo.result

val attempt : 'a request -> question -> rung -> ('a answer, string) result
(** [question] on [rung] through the entries above, for a caller
    walking {!ladder}. The on-the-fly rung also refuses what {!plan}
    calls [Too_large]. *)
