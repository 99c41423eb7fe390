(** Streaming distribution metrics.

    A [Dist.t] accumulates a stream of float samples — span durations,
    per-run step counts, transition fan-outs — and answers with
    count/mean/stddev (Welford's online algorithm, so the running
    moments are numerically stable) and exact quantiles (every sample
    is retained; p50/p95/p99 are read off the sorted union on demand).

    {b Same cost discipline as {!Obs.Counter}.} With no sink installed
    a [record] is one atomic load and a branch — no allocation, no
    domain-local state touched; the test "disabled path allocates
    nothing" in [test_obs.ml] pins the zero allocation.

    {b Domain-safe.} One accumulator cell per (dist, domain), created
    through [Domain.DLS] on first record; each cell has a single
    writer. Readers merge cells with the parallel-Welford combination
    formula, so moments over samples recorded from [Domain.spawn]ed
    workers are exact. Reads are racy against concurrent writers —
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

val name : t -> string
val count : t -> int

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

val quantile : t -> float -> float option
(** [quantile t q] with [0 <= q <= 1]; [None] when empty. Linear
    interpolation between order statistics, matching
    [Stabstats.Stats.quantile]. *)

val snapshot : unit -> (string * summary) list
(** Every registered dist that has recorded at least one sample, in
    registration order. *)

val reset_all : unit -> unit
(** Drop every sample of every dist. Racy against concurrent writers;
    call between, not during, instrumented work. *)

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
