(** Flight recorder: a crash-surviving black box for the telemetry
    stream.

    Every Domain that emits events keeps a ring buffer of its last N
    span / message events (plus ring-only {!note} breadcrumbs), at the
    same cost discipline as {!Obs.Counter} cells: disabled, a call
    site pays one atomic load and a branch and allocates nothing
    (pinned by [test_obs.ml]); enabled, a record is one DLS
    lookup and two plain atomic ops on a single-writer cell — no
    locks, no contention.

    When a run dies — uncaught exception, fatal signal, cancel
    deadline expiry, campaign cell quarantine — the rings are merged
    and written as a self-contained JSONL artifact: one header line
    with provenance (cmdline, pid, commit/dirty, cores, GC stats),
    one line per registered {!add_section} provider (pool state,
    campaign progress), a {!Registry} snapshot, then the merged events
    in timestamp order using the exact schema of the JSONL sink.
    [stabsim doctor DUMP] renders the artifact (see
    [Stabcampaign.Doctor]).

    Enabling the recorder lights {!Obs.hot}, so counters, gauges and
    spans record even with no sink installed; {!Dist} samples and
    per-span-close counter snapshots stay gated on {!Obs.on} (sinks)
    because their retention is unbounded. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording. [capacity] (default 512) sizes each per-Domain
    ring {e created from now on}; rings already created keep their
    size. Idempotent. *)

val enabled : unit -> bool

val note : ?level:Obs.level -> string -> unit
(** Drop a breadcrumb into the calling domain's ring — regardless of
    the log level, invisible to sinks. No-op (one atomic load + branch)
    when disabled. *)

val notef :
  ?level:Obs.level -> ('a, Format.formatter, unit, unit) format4 -> 'a

val add_section : string -> (unit -> Json.t) -> unit
(** Register a named dump-section provider, called at every dump (its
    result becomes a [{"type":"section","name":...,"data":...}] line).
    Registering the same name again replaces the provider; a provider
    that raises yields an [{"error":...}] payload instead of aborting
    the dump. *)

val events : unit -> Obs.event list
(** Test seam: the flight tests read the rings through it; callers see
    them in {!dump_to}'s artifact. Merged ring contents across every
    domain that ever recorded, in timestamp order. Racy against live
    writers (a concurrent record may or may not appear). *)

val dump_to : reason:string -> string -> unit
(** Write the dump artifact — JSONL, one object per line (header,
    sections, registry, events — see module doc) — to a file
    atomically (temp sibling + rename), so a path refreshed
    periodically is always parseable even if the process is SIGKILLed
    mid-write. Raises [Sys_error] on unwritable paths. *)

(** {1 Crash-exit plumbing}

    Fatal paths latch a reason with {!set_pending} (safe to call from
    a signal handler: one atomic store) and then [exit]; the [at_exit]
    hook installed by {!set_exit_dump} writes the dump iff a reason is
    pending. Clean exits leave no artifact. *)

val set_pending : string -> unit

val set_exit_dump : string -> unit
(** Arrange for a pending-reason dump to [path] at process exit (the
    hook is registered once; later calls just change the path). *)

val dump_pending : unit -> unit
(** Write the exit dump now iff a reason is pending, consuming it.
    The uncaught-exception handler needs this because OCaml runs
    [at_exit] {e before} the handler fires, so a reason latched inside
    the handler would otherwise be lost. *)

(**/**)

val reset_for_tests : unit -> unit
(** Test seam: each test starts dark from empty rings, so suite order
    never matters. Stop recording and zero every ring. *)

(**/**)
