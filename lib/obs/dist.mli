(** Streaming distribution metrics.

    A [Dist.t] accumulates a stream of float samples — span durations,
    per-run step counts, transition fan-outs — and answers with
    count/mean/stddev and exact quantiles: every sample is retained,
    and the summary is read off their sorted union on demand (two
    passes, mean then squared deviations, as
    [Stabstats.Stats.summarize] takes them).

    {b Same cost discipline as {!Obs.Counter}.} With no sink installed
    a [record] is one atomic load and a branch — no allocation, no
    domain-local state touched; the test "disabled path allocates
    nothing" in [test_obs.ml] pins the zero allocation.

    {b Domain-safe.} One accumulator cell per (dist, domain), created
    through [Domain.DLS] on first record; each cell has a single
    writer. Readers merge the cells' samples, so a summary over samples
    recorded from [Domain.spawn]ed workers is the same as over one
    stream. Reads are racy against concurrent writers —
    summarize between, not during, instrumented work (the same
    contract as {!Obs.Counter.reset_all}).

    Samples are retained unbounded (8 bytes each, unboxed); the
    recorders in this tree emit one sample per engine run or per
    expanded configuration, not per step, so retention is at worst a
    few megabytes per campaign. [reset_all] drops them. *)

type t

val make : string -> t
(** Registers a new named distribution. Like counters, dists live for
    the process; make them once at module initialization. *)

val record : t -> float -> unit
(** No-op unless a sink is installed (see {!Obs.on}). *)

val record_int : t -> int -> unit
(** [record] of [float_of_int]; the conversion is skipped on the dark
    path, so an int sample costs nothing when telemetry is off. *)

val count : t -> int
(** Test seam: the tests check through it that dark records are dropped
    and that the pipeline's dists fill. Samples recorded so far. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1); 0 for n < 2 *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** linear interpolation between order statistics *)
}

val summary : t -> summary option
(** [None] until at least one sample has been recorded. *)

val snapshot : unit -> (string * summary) list
(** Every registered dist that has recorded at least one sample, in
    registration order. *)

val reset_all : unit -> unit
(** Test seam: tests start each case from empty distributions. Drop
    every sample of every dist. Racy against concurrent writers; call
    between, not during, instrumented work. *)

(** {1 The pipeline's well-known distributions} *)

val engine_run_steps : t
(** Steps per finished {!Engine.run} execution ("engine.run.steps") —
    the per-run stabilization-time distribution behind the
    [engine_steps] counter's total. *)

val checker_out_degree : t
(** Successor count per configuration packed by {!Checker}
    ("checker.out-degree") — the transition fan-out distribution of
    the most recent expansions. *)

val markov_solve_residual : t
(** Relative residual after each sweep of the sparse Markov solvers
    ("markov.solve.residual") — how fast the Gauss-Seidel/Jacobi
    iterations are contracting, across every solved block. *)
