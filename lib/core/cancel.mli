(** Cooperative cancellation for long-running analyses.

    The campaign runner (and any other orchestrator) needs to stop an
    exact expansion, a Markov solve or a Monte-Carlo campaign that has
    outlived its budget — without killing the domain running it. OCaml
    has no asynchronous interruption between domains, so cancellation
    here is {e cooperative}: the orchestrator creates a {!t} (a stop
    flag plus an optional monotonic-clock deadline), installs it as the
    running domain's {e current token}, and the library's long loops
    call {!poll} at coarse intervals. When the flag is raised or the
    deadline has passed, {!poll} raises {!Cancelled} and the analysis
    unwinds ordinarily (spans close, [Fun.protect] finalizers run).

    {b Cost when dark.} With no current token installed, {!poll} is a
    domain-local read and a branch — no clock read, no allocation — so
    the polled loops pay almost nothing for it.

    {b Domains.} The current token is per-domain state ([Domain.DLS]).
    Library code that shards work across [Domain.spawn] re-installs the
    parent's token inside each worker (see {!Checker.expand} and
    {!Montecarlo.sample}), so a timeout covers the whole
    domain tree of one analysis. Raising the flag is an atomic store
    and is safe from any domain — including a signal handler. *)

type reason =
  | Timeout  (** the token's deadline passed *)
  | Drained  (** an orchestrator asked the work to stop (graceful drain) *)

exception Cancelled of reason

type t
(** A cancellation token: one atomic flag, optionally guarded by a
    deadline. Tokens are single-use — once raised they stay raised. *)

val create : ?deadline_ns:int -> unit -> t
(** [deadline_ns] is an absolute {!Stabobs.Obs.now_ns} instant; a token
    without one only cancels when {!cancel} is called. *)

val cancel : ?reason:reason -> t -> unit
(** Raise the flag (default reason {!Drained}). The first reason wins:
    cancelling an already-cancelled token is a no-op, so a timeout and
    a drain racing on the same token report one consistent cause. *)

val peek : t -> reason option
(** The flag as-is: no deadline check, no latch, no {!last_poll_ns}
    update. This is the observer a flight dump uses so inspecting a
    live token never perturbs it. *)

val deadline_ns : t -> int option

val last_poll_ns : t -> int
(** Monotonic instant of the last deadline check on this token, or 0
    if none happened yet. Only deadline-guarded tokens track this
    (flag-only tokens never read the clock); the flight recorder's
    campaign section reports it so [stabsim doctor] can tell a cell
    that stopped polling from one that is polling but stuck. *)

(** {1 The per-domain current token} *)

val current : unit -> t option
(** This domain's current token. Workers spawned by library code
    inherit the spawning domain's token explicitly, not
    automatically. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run with the token installed, restoring the previous current token
    on exit (exceptions included). *)

val poll : unit -> unit
(** Checks the current token, if any: checks (and latches) its
    deadline first, then @raise Cancelled if the token is cancelled. This is the hook threaded
    through the library's long loops; call it every few hundred units
    of work, not per innermost iteration. *)

val pp_reason : Format.formatter -> reason -> unit
