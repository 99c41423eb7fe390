(** Explicit-state view of a protocol's full transition system.

    The paper analyses systems [S = (C, ->)] whose initial set is all
    of [C]. This module materializes [C] through {!Encoding} and
    exposes, per configuration, every step each scheduler class
    allows. Scheduler classes replace concrete schedulers for
    exhaustive checking: a central daemon can activate any single
    enabled process, a distributed daemon any non-empty subset, and the
    synchronous daemon exactly the full enabled set. *)

type sched_class = Central | Distributed | Synchronous

val pp_sched_class : Format.formatter -> sched_class -> unit

type 'a t

val build : ?max_configs:int -> 'a Protocol.t -> 'a t
(** Prepares the space. [max_configs] (default [2_000_000]) guards
    against accidental exponential blow-ups; exceeding it raises
    [Invalid_argument]. Nothing is expanded eagerly beyond the
    encoding. *)

val protocol : 'a t -> 'a Protocol.t

val encoding : 'a t -> 'a Encoding.t
(** The encoding of the *full* configuration space — also for
    quotients, whose configuration codes index representatives, not
    encoding codes. {!quotient_view}'s [reps] translates them. *)

val count : 'a t -> int
(** Number of configurations: [|C|] for a full space, the number of
    symmetry orbits for a quotient. *)

(** {1 Symmetry quotients} *)

val quotient : ?relabel:(perm:int array -> int -> 'a -> 'a) -> 'a t -> 'a t
(** The orbit quotient of a full space under its validated symmetry
    group (see {!Symmetry.build}, which receives [relabel]): configs are
    orbit representatives and transitions are base transitions with
    canonicalized targets. Returns the space itself when the group is
    trivial, so callers can request quotients unconditionally. The
    result is memoized on the base space per [relabel] hook, compared
    by physical identity: a call with a different hook (or with the
    hook omitted) rebuilds rather than returning a quotient validated
    under another hook, and passing a freshly allocated closure simply
    misses the memo. Quotienting a quotient is the identity. Runs
    under a ["checker.quotient"] span and bumps the [symmetry.*]
    counters. *)

val is_quotient : 'a t -> bool

val base : 'a t -> 'a t
(** The full space a quotient was built from; the space itself
    otherwise. *)

val symmetry_order : 'a t -> int
(** Order of the validated group a quotient divides by; 1 for a full
    space. *)

val orbit_sizes : 'a t -> int array option
(** Per-representative orbit sizes of a quotient ([None] for a full
    space). Summing them yields [count (base t)]. Fresh array. *)

val quotient_view : 'a t -> ('a t * int array * int array * int array) option
(** [(base, reps, rep_of, sizes)] of a quotient: representative codes,
    the full-code-to-representative-index map, and orbit sizes. The
    arrays are the quotient's own — treat them as read-only. [None] for
    a full space. Intended for consumers that must consult the base
    relation (e.g. closure checking, lumpability audits). *)

val uid : 'a t -> int
(** Process-unique identity of this space, assigned at {!build}.
    Expansion caches key on [(uid, class)] so two builds of the same
    protocol are never conflated. *)

val config : 'a t -> int -> 'a array
(** Decode a configuration code. *)

val code : 'a t -> 'a array -> int

val legitimate_set : 'a t -> 'a Spec.t -> bool array
(** Bitmap over codes of the spec's legitimate configurations. *)

val expander :
  'a t ->
  sched_class ->
  int ->
  group:(int -> unit) ->
  succ:(int -> float -> unit) ->
  unit
(** [expander space cls] allocates per-expander scratch and returns a
    function that enumerates the steps the class allows from one
    configuration: for each step, [group] receives the activated
    subset as a process bitmask, then [succ] receives each successor
    code and its probability, in outcome order (a singleton
    distribution of weight [1.0] for deterministic protocols). The
    activated subsets come in the order {!next_group} derives from the
    enabled mask; a terminal configuration has no steps. This is the
    one per-configuration step enumeration: the checker's graph,
    closure on a quotient and the synchronous analyses all read it.
    Deterministic protocols allocate nothing per step. The returned function
    reuses its scratch, so one expander must not run on two domains at
    once; create one per range. Raises [Invalid_argument] when the
    protocol has more processes than an [int] has bits, or when more
    than 20 processes are enabled under the distributed class. *)

val delta_expander :
  'a t -> int -> group:(int -> unit) -> succ:(int -> float -> unit) -> unit
(** [delta_expander space] is [expander space Central] with every
    successor reported as its code minus the configuration's own: one
    group per enabled process, ascending, then that process's outcomes
    as deltas. In a full space a step changes each activated process's
    digit alone, so when every enabled process has one outcome the
    distributed step activating a subset lands on the code plus the sum
    of the subset's deltas: the [k] deltas stand for all [2^k - 1]
    distributed steps. Same sharing rule as {!expander}; raises
    [Invalid_argument] on a quotient, whose canonicalized successors
    are not such sums. *)

val enabled_mask : 'a t -> int -> int
(** [enabled_mask space] allocates scratch like {!expander} and returns
    a function giving Enabled(c) of a configuration as a process
    bitmask, from its guards alone, without running a statement. Same
    sharing rule as {!expander}; raises [Invalid_argument] when the
    protocol has more processes than an [int] has bits. *)

val group_count : sched_class -> int -> int
(** [group_count cls enabled] is the number of steps (groups) the class
    allows from a configuration whose enabled mask is [enabled]: one
    per enabled process (central), one per non-empty subset
    (distributed), one if any process is enabled (synchronous). A
    deterministic protocol has one successor per step, so this sizes
    its expansion. Raises [Invalid_argument] when more than 20
    processes are enabled under the distributed class. *)

val next_group : sched_class -> int -> int -> int
(** [next_group cls enabled prev] is the activated subset of the step
    after the one activating [prev], with [prev = 0] before the first:
    [enabled] itself (synchronous), the lowest enabled process above
    [prev] (central), the next non-empty submask of [enabled] in
    ascending order (distributed). Iterated {!group_count} times from
    0, it gives the groups in {!expander} order, so a packing can keep
    one enabled mask per configuration instead of a mask per group. *)

val procs_of_mask : int -> int list
(** The processes of an activation bitmask, ascending. *)

val successors : 'a t -> sched_class -> int -> int list
(** De-duplicated successor codes over all subsets and outcomes,
    ascending. *)
