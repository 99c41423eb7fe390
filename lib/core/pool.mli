(** Process-wide self-scheduling Domain pool.

    Every Domain-parallel site in the library — packed-graph expansion,
    quotient canonicalization, Monte-Carlo sampling, campaign workers —
    schedules through this one pool
    instead of paying a fresh [Domain.spawn] per call. The pool keeps
    [width () - 1] helper domains alive between calls; the submitting
    domain always participates, so a width-1 pool degenerates to plain
    sequential execution with no domain traffic at all.

    {b Scheduling.} A call is one job over [n] indices with one shared
    claim cursor: every participant takes the next [chunk] indices with
    a single atomic fetch-and-add, where
    [chunk = max min_chunk (ceil (n / (8 * width)))] — about eight
    chunks per domain, so a domain that finishes early finds work left
    without any range splitting or cost estimate. Open jobs sit on one
    list; helper domains claim from any of them, while a domain
    {e joining} its own job claims only that job's chunks and then
    waits for the ones in flight, so a nested [parallel_for] inside a
    campaign cell never runs an unrelated cell inline.

    {b Determinism.} The pool schedules {e where} work runs, never
    {e what} it computes: every site writes results into
    caller-indexed slots (row [c], run [r]) or returns them per range
    through {!map_ranges}, and merges serially in index order, so
    outputs are byte-identical at every width. See
    [docs/parallelism.md].

    {b Cancellation and failures.} The submitter's current
    {!Cancel} token is captured at submission and installed around
    every chunk of the job, whatever domain runs it. The first
    exception (including [Cancel.Cancelled]) wins; chunks of a failed
    job that have not started yet are skipped, the join re-raises after
    every claimed chunk has finished, and the helper domains stay alive
    for the next call.

    {b Telemetry.} Executed chunks, chunks run by a domain other than
    the job's submitter and chunks per job beyond the first tick the
    [pool.tasks] / [pool.steals] / [pool.splits] counters
    ({!Stabobs.Obs.Counter}); the [pool.size] and [pool.busy] gauges in
    {!Stabobs.Registry} track configured width and currently running
    chunks; per-helper busy time is exposed through {!busy_ns} for
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
    a job's unclaimed chunks are never lost — its joiner claims them.
    Calling with the current width is a no-op. *)

val helpers_alive : unit -> int
(** Test seam: the pool tests check through it that helpers spawn
    lazily and never leak. Helper domains currently spawned (0 until
    the first parallel call after a width change; at most
    [width () - 1]). *)

val parallel_for : ?min_chunk:int -> int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for n body] runs [body ~lo ~hi] over disjoint chunks
    covering [0, n), in parallel across the pool. [body] must be safe
    to run concurrently on distinct ranges and is expected to poll
    {!Cancel.poll} every few hundred units. At width 1 this is a single
    sequential [body ~lo:0 ~hi:n] call on the submitting domain — no
    job, no locks, no counters; [body] never runs when [n = 0].
    [min_chunk] (default 1) floors the chunk size. *)

val map_ranges : ?min_chunk:int -> int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_ranges n body] is {!parallel_for} keeping each chunk's result:
    the results come back in ascending [lo] order, whatever domain ran
    each chunk, so a serial merge over them is deterministic. At width
    1 the list has exactly one element, [body ~lo:0 ~hi:n]; it is empty
    when [n = 0]. *)

val scatter : int -> (int -> unit) -> unit
(** [scatter k f] runs [f 0 .. f (k - 1)] as one job of [k]
    one-index chunks and joins it; the submitting domain participates.
    At width 1 this is a plain sequential loop. Cancellation and failure
    semantics are those of {!parallel_for}. *)

val busy_ns : unit -> (string * int) list
(** Cumulative chunk-execution time per lane since the last
    {!reset_busy}: one ["pool-1"] .. entry per helper slot plus
    ["caller"] aggregating work the submitting (or any non-helper)
    domain ran inline. *)

val reset_busy : unit -> unit
