(** Process-wide work-stealing Domain pool.

    Every Domain-parallel site in the library — packed-graph expansion,
    quotient canonicalization, Monte-Carlo sampling, campaign workers —
    schedules through this one pool
    instead of paying a fresh [Domain.spawn] per call. The pool keeps
    [width () - 1] helper domains alive between calls; the submitting
    domain always participates, so a width-1 pool degenerates to plain
    sequential execution with no domain traffic at all.

    {b Scheduling.} Each participating domain owns a deque (modeled on
    Manticore's work-stealing local deques): the owner pushes and pops
    at the bottom (LIFO, so freshly split subranges stay cache-hot),
    idle workers steal from the top (FIFO, so thieves take the largest
    unsplit ranges). Helper domains run any pending task; a domain
    {e joining} a specific job only executes that job's tasks, so a
    nested [parallel_for] inside a campaign cell never "helps" an
    unrelated cell inline.

    {b Adaptive grain.} [parallel_for] splits ranges lazily, guided by
    an online cost-per-unit estimator in the spirit of Manticore's
    oracle-scheduler CED: chunks start coarse (about [2 * width]
    shares), every executed chunk reports ns/unit into its {!Grain}
    site (damped update, bounded relative change), and a range is split
    only while its estimated cost stays above the sequential-grain
    threshold. Skewed ranges therefore keep splitting and get stolen;
    uniform cheap ranges run as a few large chunks.

    {b Determinism.} The pool schedules {e where} work runs, never
    {e what} it computes: every site writes results into
    caller-indexed slots (row [c], run [r]) or returns them per range
    through {!map_ranges}, and merges serially in index order, so
    outputs are byte-identical at every width. See
    [docs/parallelism.md].

    {b Cancellation and failures.} The submitter's current
    {!Cancel} token is captured at submission and installed around
    every task of the job, whatever domain runs it. The first exception
    (including [Cancel.Cancelled]) wins; tasks of a failed job that
    have not started yet are skipped, the join re-raises after all of
    the job's tasks have drained, and the helper domains stay alive for
    the next call.

    {b Telemetry.} Executed tasks, cross-domain steals and range splits
    tick the [pool.tasks] / [pool.steals] / [pool.splits] counters
    ({!Stabobs.Obs.Counter}); the [pool.size] and [pool.busy] gauges in
    {!Stabobs.Registry} track configured width and currently running
    tasks; per-helper busy time is exposed through {!busy_ns} for
    [stabsim profile]. *)

val default_width : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1 —
    the shared CLI default: leave one core to the submitting domain's
    OS neighbors instead of oversubscribing the machine. *)

val width : unit -> int
(** Current pool width (total parallelism, submitting domain
    included). Initially {!default_width}. *)

val set_width : int -> unit
(** Set the pool width, clamped to at least 1. Shrinking or growing
    joins the existing helper domains and (lazily) spawns fresh ones;
    tasks still queued on a retired helper's deque are not lost — they
    remain stealable and the owning job's join executes them. Calling
    with the current width is a no-op. *)

val helpers_alive : unit -> int
(** Helper domains currently spawned (0 until the first parallel call
    after a width change; at most [width () - 1]). For leak tests. *)

(** Online cost-per-unit estimators, one per call site. *)
module Grain : sig
  type site

  val site : string -> site
  (** Named estimator; create once at module initialization. The name
      appears in {!snapshot} (and [stabsim profile]). *)

  val ns_per_unit : site -> float
  (** Current estimate; [0.] until the first measurement. *)

  val measured : site -> units:int -> ns:int -> unit
  (** Report one executed chunk. Damped update (alpha 0.1): changes
      below 5% of the current estimate are ignored, changes above 100%
      are clamped, so one preempted chunk cannot wreck the grain. *)

  val snapshot : unit -> (string * float) list
  (** All sites with a measurement, sorted by name. *)

  val reset_all : unit -> unit
end

val parallel_for :
  ?site:Grain.site ->
  ?grain_ns:int ->
  ?min_chunk:int ->
  int ->
  (lo:int -> hi:int -> unit) ->
  unit
(** [parallel_for n body] runs [body ~lo ~hi] over disjoint chunks
    covering [0, n), in parallel across the pool. [body] must be safe
    to run concurrently on distinct ranges and is expected to poll
    {!Cancel.poll} every few hundred units. At width 1 (or [n = 0])
    this is a single sequential [body ~lo:0 ~hi:n] call on the
    submitting domain — no job, no locks.

    [site] carries the cost estimate across calls (a fresh anonymous
    site is used otherwise); [grain_ns] is the sequential-grain
    threshold (default 500µs): ranges whose estimated cost exceeds it
    are split. [min_chunk] (default 1) floors the chunk size. *)

val map_ranges :
  ?site:Grain.site ->
  ?grain_ns:int ->
  ?min_chunk:int ->
  int ->
  (lo:int -> hi:int -> 'a) ->
  'a list
(** [map_ranges n body] is {!parallel_for} keeping each chunk's result:
    the results come back in ascending [lo] order, whatever domain ran
    each chunk, so a serial merge over them is deterministic. At width
    1 the list has exactly one element, [body ~lo:0 ~hi:n]; it is empty
    when [n = 0]. *)

val scatter : int -> (int -> unit) -> unit
(** [scatter k f] runs [f 0 .. f (k - 1)] as [k] independent pool
    tasks and joins them all; the submitting domain participates. At
    width 1 this is a plain sequential loop. Cancellation and failure
    semantics are those of {!parallel_for}. *)

val busy_ns : unit -> (string * int) list
(** Cumulative task-execution time per lane since the last
    {!reset_busy}: one ["pool-1"] .. entry per helper slot plus
    ["caller"] aggregating work the submitting (or any non-helper)
    domain ran inline. *)

val reset_busy : unit -> unit
