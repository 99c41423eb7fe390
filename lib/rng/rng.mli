(** Deterministic, splittable pseudo-random number generation.

    The simulation experiments of the paper (randomized schedulers of
    Definition 6, P-variables of Section 2, the Section 4 transformer)
    need reproducible randomness: every experiment is parameterized by a
    seed, and independent streams must be derivable for parallel sweeps
    without correlation. This module implements SplitMix64 for seeding
    and stream splitting and xoshiro256++ as the bulk generator, both
    from the public-domain reference algorithms by Blackman and Vigna. *)

type t
(** A mutable generator state. Not thread-safe; split instead of
    sharing. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds
    yield equal streams. *)

val split : t -> t
(** [split t] derives a fresh generator whose stream is statistically
    independent from the continuation of [t]. Both generators advance. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays the same
    stream as [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform over [0, bound). Requires [bound > 0].
    Uses rejection sampling, so the distribution is exactly uniform. *)

val float : t -> float
(** Uniform over [0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** A fair coin — the paper's [Rand(true, false)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val pick_weighted : t -> ('a * float) list -> 'a
(** [pick_weighted t dist] samples from a finite distribution given as
    (value, weight) pairs with positive total weight. Weights need not
    be normalized. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val nonempty_subset : t -> 'a list -> 'a list
(** [nonempty_subset t items] is a uniformly random non-empty subset of
    a non-empty [items] — the choice a distributed randomized scheduler
    makes among enabled processes. Preserves the input order. *)
