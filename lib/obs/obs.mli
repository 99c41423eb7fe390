(** Telemetry core: counters, spans, sinks and per-phase profiling.

    The library pipeline (state-space expansion, the packed-graph
    checker, the Markov solver, Monte-Carlo sampling, fault campaigns)
    reports what it does through this module: lock-free per-Domain
    {b counters}, nestable monotonic-clock {b spans}, and leveled
    {b messages}, all delivered to pluggable {b sinks}.

    {b Zero cost when dark.} With no sink installed every span call
    degrades to one atomic load, a branch and a tail call of the
    wrapped closure, and every counter bump to a load and a branch —
    no clock read, no allocation. Instrument hot paths freely; the
    test "disabled path allocates nothing" in [test_obs.ml] pins the
    zero allocation.

    {b Domain-safe.} Counters keep one accumulator cell per Domain
    (registered through [Domain.DLS] on first touch) and merge them on
    read, so increments from [Domain.spawn]ed workers are never lost
    and never contend. Sinks serialize internally; events may arrive
    from any domain. *)

val now_ns : unit -> int
(** Monotonic clock, nanoseconds since an arbitrary origin. *)

(** {1 Levels and messages} *)

type level = Quiet | Error | Warn | Info | Debug

val set_level : level -> unit
(** Default is {!Warn}: warnings and errors show, spans and info do
    not. {!Quiet} silences everything, including the stderr fallback
    for warnings. *)

val errorf : ('a, Format.formatter, unit, unit) format4 -> 'a
(** Messages at or below the current level are printed to stderr and
    emitted to every installed sink as a {!Message} event; others are
    dropped without formatting. *)

val warnf : ('a, Format.formatter, unit, unit) format4 -> 'a
val infof : ('a, Format.formatter, unit, unit) format4 -> 'a

(** {1 Counters} *)

module Counter : sig
  type t

  val make : string -> t
  (** Registers a new named counter. Counters live for the process;
      make them once at module initialization, not per call. *)

  val incr : t -> unit
  (** No-op unless a sink is installed or the flight recorder is on
      (see {!hot}). *)

  val add : t -> int -> unit
  val value : t -> int
  (** Sum over every per-Domain cell, including cells of domains that
      have since terminated. *)

  val snapshot : unit -> (string * int) list
  (** Every registered counter with its current value, in registration
      order. *)

  val reset_all : unit -> unit
  (** Zero every cell of every counter — for the start of a profiling
      run. Racy against concurrent writers; call it between, not
      during, instrumented work. *)
end

(** The pipeline's well-known counters. *)

val configs_expanded : Counter.t
(** Configurations whose transition rows were packed by {!Checker}. *)

val transitions_emitted : Counter.t
(** Edges pushed into packed transition graphs. *)

val graph_cache_hits : Counter.t
val graph_cache_misses : Counter.t
(** Lookups in the per-(space, class) packed-graph cache. *)

val montecarlo_runs : Counter.t
(** Sampled executions completed (serial and Domain-parallel). *)

val fault_injections : Counter.t
(** Mid-run corruptions applied by {!Engine.run}'s inject hook. *)

val engine_runs : Counter.t
val engine_steps : Counter.t
(** Simulated executions and their cumulative daemon steps. *)

val symmetry_orbits : Counter.t
(** Orbits discovered while canonicalizing a state space
    ("symmetry.orbits"). *)

val symmetry_canon_hits : Counter.t
val symmetry_canon_misses : Counter.t
(** Canon-cache lookups that found / filled an orbit entry
    ("symmetry.canon-hit" / "symmetry.canon-miss"). *)


val markov_solve_sweeps : Counter.t
(** Iterative sweeps performed by the sparse Markov solvers
    ("markov.solve.sweeps"), accumulated per solved block; exact
    singleton-block back-substitutions do not count. *)

val checker_reverse_builds : Counter.t
val checker_terminal_scans : Counter.t
val checker_scc_builds : Counter.t
(** Intermediate structures the analyses derive
    ("checker.reverse_builds" / "checker.terminal_scans" /
    "checker.scc_builds"): reverse-adjacency constructions (every one
    the graph kernel builds, wherever called: nothing memoizes one, and
    no verdict path builds one), the checker's terminal scans, and its
    Tarjan SCC decompositions for fairness and pseudo-stabilization
    (Streett refinement may add decompositions on pruned subsets; the
    kernel's own pass inside [Digraph.reaches] is not counted). Tests
    read them to assert that [Checker.analyze] builds no reverse and
    derives the others exactly once per verdict. *)

val checker_heights_passes : Counter.t
val checker_reaches_passes : Counter.t
(** Graph-kernel passes that ran ("checker.heights_passes" /
    "checker.reaches_passes"), wherever called: depth-first searches
    of [Digraph.heights_outside] (an answer its memo returns does not
    count) and SCC passes of [Digraph.reaches]. Tests read them to
    assert that [Checker.analyze] followed by
    [Checker.worst_case_steps] on a self-stabilizing system runs one
    search and no reachability pass. *)

val pool_tasks : Counter.t
val pool_steals : Counter.t
val pool_splits : Counter.t
(** Domain pool activity ("pool.tasks" / "pool.steals" /
    "pool.splits"): chunks executed, chunks run by a domain other than
    the job's submitter, and chunks per job beyond the first, in every
    [Stabcore.Pool] job (none at width 1). Scheduling telemetry only —
    steals legitimately vary run to run, and all three vary across
    widths. *)

(** {1 Spans} *)

val span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], bracketing it with {!Span_begin} /
    {!Span_end} events carrying monotonic timestamps, the running
    domain, and (at close, when a sink is installed) a full counter
    snapshot — so per-Domain accumulators are merged at span close.
    Exceptions still close the span. When dark ({!hot} false) this is
    [f ()]. With GC sampling on
    (see {!set_gc_sampling}) and a sink installed, the end event also
    carries the span's allocation and collection deltas. *)

val with_tags : (string * Json.t) list -> (unit -> 'a) -> 'a
(** [with_tags tags f] appends [tags] to the args of every span event
    this domain emits while [f] runs (nested scopes accumulate; inner
    scopes append after outer ones). The campaign runner uses this to
    stamp every span of a cell's analysis with the cell label, hash
    and worker index, so JSONL logs are greppable by cell and the
    Chrome trace shows cells as labeled nested slices. Tags are
    domain-local: spans emitted by domains spawned inside [f] do not
    inherit them. With no sink installed this is [f ()]. *)

val set_gc_sampling : bool -> unit
(** Off by default. When on, every span brackets its body with a
    [Gc.quick_stat] pair and reports the deltas ({!gc_delta}) on its
    end event, bumping the "gc.minor_words" and "gc.major_collections"
    counters. Inclusive like span durations: a nested sampled span
    contributes to every enclosing span's delta, so these totals
    over-count nesting the same way {!Profile} totals do.
    Costs two GC stat reads per span on the lit path only; the dark
    path (no sink) is unchanged — no stat read, no allocation. *)

(** {1 Events and sinks} *)

type gc_delta = {
  alloc_bytes : int;
      (** total bytes allocated during the span (minor + direct major,
          promotions not double-counted) *)
  minor_words : int;  (** words allocated in the minor heap *)
  minor_collections : int;
  major_collections : int;
}

type event =
  | Span_begin of {
      name : string;
      ts : int;  (** ns, monotonic *)
      domain : int;
      args : (string * Json.t) list;
    }
  | Span_end of {
      name : string;
      ts : int;  (** ns, end of span *)
      dur : int;  (** ns *)
      domain : int;
      args : (string * Json.t) list;
      gc : gc_delta option;  (** present iff GC sampling was on at open *)
      counters : (string * int) list;  (** merged snapshot at close *)
    }
  | Message of { level : level; ts : int; domain : int; text : string }

type sink = { emit : event -> unit; close : unit -> unit }

val install : sink -> unit
(** Sinks stack: every event goes to every installed sink. *)

val clear : unit -> unit
(** Uninstall and [close] every sink (flushing files). *)

val on : unit -> bool
(** True iff at least one sink is installed. This guard still gates the
    unbounded-retention paths — {!Dist} samples and the per-span-close
    counter snapshot — which must stay off under the always-on flight
    recorder. *)

val hot : unit -> bool
(** True iff anyone wants events at all: a sink is installed {e or}
    the {!Flight} recorder is enabled. This is the guard the event
    constructors (spans, counters, gauges, ambient tags) check; it
    costs the same one atomic load + branch as {!on}. *)

(**/**)

val flight_on : unit -> bool
(** True iff the flight recorder is enabled (internal; use
    [Flight.enabled]). *)

val set_flight_hook : (event -> unit) option -> unit
(** Installs / removes the flight recorder's event tap and flips the
    corresponding {!hot} bit. Internal plumbing for [Flight.enable] —
    the hook sees every event {!emit} delivers to sinks, plus every
    event produced while only the flight bit is lit. *)

val self_id : unit -> int
(** The calling domain's id, as stamped into events. *)

(**/**)

val event_to_json : event -> Json.t
(** The JSONL schema: [{"type":"span_end","name":...,"ts_ns":...,
    "dur_ns":...,"domain":...,"args":{...},"counters":{...}}] and
    likewise for [span_begin] / [message] (see docs/observability.md). *)

val null_sink : unit -> sink
(** A sink that records nothing. Installing one still flips {!on}, so
    counters, gauges and distributions accumulate — this is how the
    status server lights the metrics path without writing any file. *)

val stderr_sink : unit -> sink
(** Human sink for [-v]: one line per closed span with its duration;
    span opens shown only at {!Debug}. Messages are not re-printed
    here (the logger already writes them to stderr). *)

val jsonl_channel : out_channel -> sink
(** Structured sink: one compact JSON object per event, one per line.
    Owns the channel: closing the sink flushes and closes it. *)

val chrome_channel : out_channel -> sink
(** Chrome [trace_event] exporter: spans become complete ("X") events
    with microsecond timestamps, tid = domain id, so every Domain gets
    its own lane; messages become instant events. Each domain's first
    event is preceded by [thread_name] / [thread_sort_index] metadata
    records (and the file opens with a [process_name] record), so the
    lanes render labeled and ordered. The resulting file loads directly
    in [chrome://tracing] and Perfetto. Owns the channel. *)

val memory_sink : unit -> sink * (unit -> event list)
(** Test seam: tests capture emitted events through it. Buffering
    sink: the accessor returns events in emission order. *)

(** {1 Per-phase profiling} *)

module Profile : sig
  type t

  val create : unit -> t

  val sink : t -> sink
  (** Install this to accumulate span statistics into [t]. *)

  type row = {
    name : string;
    count : int;
    total_ns : int;  (** inclusive: nested spans also count in parents *)
    max_ns : int;
    minor_words : int;
        (** summed per-span GC deltas; 0 unless GC sampling was on *)
    major_collections : int;
  }

  val rows : t -> row list
  (** Sorted by total time, descending. *)

  val wall_ns : t -> int
  (** Span between the first and last event the recorder saw. *)
end

val pretty_ns : int -> string
(** "412ns", "3.2us", "41.7ms", "1.24s". *)

val pretty_words : int -> string
(** "412w", "3.2kw", "41.7Mw" — GC word counts. *)
