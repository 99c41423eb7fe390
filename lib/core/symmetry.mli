(** Validated symmetry groups acting on packed configuration codes.

    Anonymous protocols commute with automorphisms of their
    communication graph (the structural fact behind the paper's
    Theorem 3 impossibility argument). This module turns that symmetry
    into a state-space reduction: it takes candidate node permutations
    from {!Stabgraph.Graph.automorphisms}, validates each *generator* by
    an exact commutation sweep over the full configuration space (each
    process's enabledness and singleton outcome distribution must map
    onto its image's, weights compared at tolerance 1e-9; the protocol
    is evaluated at most once per configuration), closes the valid
    generators into a group, and canonicalizes codes to orbit
    representatives (orbit-minimum codes) with a memoizing canon cache.

    Validation is what keeps the reduction sound for *oriented*
    protocols: the dihedral candidates of a ring collapse to the cyclic
    subgroup when reflections fail to commute (e.g. the token ring reads
    its predecessor), and an asymmetric relabel hook or state domain
    simply drops the offending generators. The worst case is the trivial
    group, never an unsound quotient. *)

type 'a t

val build :
  ?relabel:(perm:int array -> int -> 'a -> 'a) ->
  ?limit:int ->
  'a Protocol.t ->
  'a Encoding.t ->
  'a t
(** [build protocol enc] computes the validated symmetry group.
    [relabel ~perm p s] translates the local state [s] of process [p]
    for residence at [perm.(p)] — needed when states embed local
    neighbor indexes (e.g. {!Stabalgo.Leader_tree.relabel}); the default
    is the identity, correct for neighbor-index-free state spaces.
    [relabel] must respect composition of permutations. [limit] bounds
    the candidate group size (see {!Stabgraph.Graph.automorphisms}). *)

val group_order : 'a t -> int
(** Number of validated group elements (at least 1: the identity). *)

val is_trivial : 'a t -> bool
(** [group_order t <= 1] — quotienting would be the identity map. *)

val apply : 'a t -> int -> int -> int
(** Test seam: the symmetry tests check each group element's action
    through it; callers reach it through {!fill_table}.
    [apply t i code] is the image of [code] under group element [i],
    for [0 <= i < group_order t]. *)

val fill_table : 'a t -> unit
(** Populate the whole canon cache (each code's orbit representative,
    the minimum code of its orbit), sharded across the
    {!Stabcore.Pool}. Safe at any pool width: the orbit minimum is
    visit-order independent, so racing domains write identical values,
    and the [symmetry.canon-hit] / [symmetry.canon-miss] /
    [symmetry.orbits] counters are emitted from an exact post-pass —
    the same totals at every width. Call it once, on a freshly built
    group, before read-only parallel consumption. *)

val canon_value : 'a t -> int -> int
(** Counter-free read of a cache entry filled by {!fill_table}.
    Asserts the entry is present. *)

(** {1 Soundness checks}

    With paranoid mode on (programmatically or via the
    [STAB_SYMMETRY_PARANOID] environment variable), quotient consumers
    run redundant lumpability/invariance checks against the full space —
    see {!Statespace.quotient} and {!Markov.of_space}. *)

val set_paranoid : bool -> unit
(** Test seam: tests switch paranoid mode on without the environment
    variable. *)

val paranoid_enabled : unit -> bool
