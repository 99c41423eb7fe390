(** Markov chains induced by randomized schedulers (Definition 6).

    A randomized scheduler turns the non-determinism of the daemon into
    uniform probabilistic choice; combined with the protocol's own
    P-variables this makes the whole system a finite Markov chain over
    configuration codes. Theorem 7 of the paper is then a statement
    about this chain: a finite deterministic protocol is weak-stabilizing
    iff the chain reaches [L] with probability 1 from every state —
    which, for finite chains, is equivalent to [L] being reachable from
    every state, and to every bottom SCC intersecting [L]. This module
    decides the first two, as one pass over the states outside [L]
    (the tests hold it to the third), plus exact and sparse iterative
    expected hitting times (the quantitative study the paper leaves as
    future work).

    A chain is a {!Digraph} graph plus a per-row weight reader, and
    its rows are merged on demand. {!of_space} keeps the checker's
    graph itself, so it allocates nothing per state: a deterministic
    protocol's full space under {!Distributed_uniform} stores each
    configuration's k per-process deltas ({!Digraph.Subsets}, every
    non-empty subset of them one step of weight 1/(2^k - 1)); the
    central and synchronous classes, every quotient and every
    randomized protocol store the steps' targets ({!Digraph.Edges}),
    weighed by {!Checker.row_weights}: 1/g for each of a
    configuration's g steps, times the outcome's probability for a
    randomized one. {!of_rows} stores its rows
    merged, with their weights. Every row reads as its targets merged
    and ascending, equal targets' weights summed in arrival order. Both
    solvers are BSCC-blocked: the states outside [L] are decomposed
    into strongly connected blocks ({!Digraph.blocks_outside}) solved
    in reverse topological order, so acyclic parts cost one
    back-substitution pass, and elimination or iteration is confined to
    the blocks that need it; the rows are merged one block at a time.
    That decomposition is the pass {!reaches} and
    {!converges_with_prob_one} read, remembered by the kernel for the
    last graph and set, so a check followed by a solve on one chain and
    one [L] traverses the graph once, and so does a {!Checker.analyze}
    on the same space before them. See [docs/markov-solvers.md]. *)

type randomization =
  | Central_uniform
      (** pick one enabled process uniformly (Definition 6, central) *)
  | Distributed_uniform
      (** pick a uniformly random non-empty subset of the enabled
          processes (Definition 6, distributed) *)
  | Sync  (** activate all enabled processes (probabilistic branching
              comes only from P-variables; Theorem 8's setting) *)

type t
(** A finite Markov chain over configuration codes; terminal
    configurations are absorbing (probability-1 self-loop). *)

val of_space : 'a Statespace.t -> randomization -> t
(** Expand the full chain. Row probabilities sum to 1. The chain keeps
    {!Checker.expand}'s graph (cached per space and class) with
    {!Checker.row_weights} as its weight reader, and allocates nothing
    per state. On a quotient
    space (see {!Statespace.quotient}) this is the strongly lumped
    chain: hitting times and absorption probabilities per representative
    equal the full chain's at every orbit member. With
    {!Symmetry.set_paranoid} on, the lumpability condition is audited
    against the full chain and violations raise [Invalid_argument]. *)

val of_rows : (int * float) list array -> t
(** Build a chain from explicit rows (state [i]'s successor
    distribution). Rows are validated: every target in range, weights
    finite, positive and summing to 1 within [1e-9]
    ([Invalid_argument] otherwise, NaN included). Each row is then
    merged once, by a stable sort of its own, equal targets' weights
    summed in arrival order, and stored merged; empty rows become
    absorbing. Used for comparator systems modelled directly at a
    coarser abstraction (e.g. Israeli-Jalfon token positions), and as
    the independent twin a chain's rows are tested against. *)

val of_arrivals : (int * float) list array -> t
(** Test seam: the merge tests hand the chain's own [Edges] merge rows
    it never meets otherwise, over more than 65,536 states (three
    radix passes) and on both sides of {!short_row}. {!of_rows}
    without its merge: the rows are checked as there, then stored as
    given, in arrival order, so that every read merges them. *)

val short_row : int
(** Test seam: the merge tests count the rows long enough to take the
    radix path. An [Edges] row of at most this many stored entries is
    insertion-sorted when merged; a longer one is sorted by stable
    radix passes over its targets' bits. *)

val states : t -> int
val row : t -> int -> (int * float) list
(** Successor distribution of a state, merged and sorted by code; an
    absorbing state is [[(c, 1.0)]]. A target reached by several
    activated subsets (or outcomes) weighs their weights summed in
    arrival order. *)

val graph : t -> Digraph.t
(** Test seam: the Markov tests check through it that a chain keeps the
    checker's graph itself and compare its blocks and entry counts.
    The positive-probability edges as a {!Digraph} graph (the chain's
    own arrays, not a copy). Targets may repeat and need not be sorted,
    and a terminal state has no edge at all: a chain from {!of_space}
    hands over the checker's graph itself, whose rows are its steps in
    expander order: the subset sums in mask order of a
    {!Digraph.Subsets} graph, with a self-loop per subset of zero
    deltas, or the step targets of a {!Digraph.Edges} graph, a target
    repeated once per step (or outcome) that reaches it. A chain from
    {!of_rows} has its merged rows, ascending and distinct.
    Reachability and the strongly connected components are those of
    the merged rows either way. *)

val reaches : t -> target:bool array -> bool array
(** [reaches chain ~target] marks states from which [target] is
    reachable through positive-probability paths: {!Digraph.reaches}
    on {!graph}, forward over the chain's own arrays, with no reverse
    built, and answered from the kernel's memo when the last pass was
    on the same graph and set. [target] must have one entry per
    state. *)

val converges_with_prob_one : t -> legitimate:bool array -> (unit, int) result
(** Probability-1 convergence to [L] from {e every} state —
    Definition 2's probabilistic convergence with [I = C]. On failure,
    returns the least state from which [L] is unreachable, read by
    {!Digraph.first_unreaching} off the kernel's blocks. *)

type sparse_kind =
  | Gauss_seidel  (** in-place sweeps; typically converges in fewer *)
  | Jacobi  (** two-buffer sweeps; order-independent within a block *)

type hitting_method =
  | Exact
      (** Gaussian elimination per BSCC block: O(sum of b^3) time and
          O(b^2) memory for the largest block of b states, one division
          per single-state block *)
  | Sparse of { kind : sparse_kind; tolerance : float; max_sweeps : int }
      (** BSCC-blocked sweeps with relative-residual stopping:
          [||x_{k+1} - x_k||_inf / max(1, ||x||_inf) <= tolerance],
          [max_sweeps] per block *)

val dense_limit : int
(** Transient-state count up to which {!default_method} solves exactly
    (1200). A chain that small has blocks of at most 1200 states, so
    an exact solve holds at most a 1200 x 1200 matrix. *)

val default_method : transient:int -> hitting_method
(** The solver the hitting-time entry points use when no [method_] is
    given, by transient-state count: [Exact] up to {!dense_limit},
    otherwise sparse Gauss-Seidel at tolerance [1e-10] with [1_000_000]
    sweeps per block. *)

type solve_stats = {
  sweeps : int;  (** iterative sweeps over every multi-state block *)
  residual : float;  (** worst final relative residual over blocks *)
  blocks : int;  (** strongly connected blocks of the transient part *)
}

type solve_outcome =
  | Converged of solve_stats
  | Max_sweeps of solve_stats
      (** some block hit its sweep budget (or a transient state had no
          probability of ever leaving itself); [residual] is
          [infinity] and the partial iterate is what the accompanying
          array holds. The blocks after the failing one are left
          unsolved, so the partial iterate and [sweeps] depend on the
          block order, which two chains with the same merged rows may
          not share *)

val sparse_hitting_times :
  ?kind:sparse_kind ->
  ?tolerance:float ->
  ?max_sweeps:int ->
  t ->
  legitimate:bool array ->
  float array * solve_outcome
(** Expected steps to reach [L] by BSCC-blocked sweeps (defaults:
    Gauss-Seidel, tolerance [1e-10], [1_000_000] sweeps per block).
    Returns the typed outcome instead of raising; callers needing the
    legacy behaviour go through {!expected_hitting_times}. Precondition
    (not checked here): probability-1 convergence to [L] — without it
    some block has no finite solution and the solve reports
    [Max_sweeps]. *)

val hitting_times_checked :
  ?method_:hitting_method ->
  t ->
  legitimate:bool array ->
  float array * solve_outcome option
(** {!expected_hitting_times} with the solver outcome surfaced instead
    of raised: [None] for exact solves (which either succeed or raise
    [Failure] on a singular block), [Some outcome] for the sparse
    backends. On [Max_sweeps] the returned array is the partial
    iterate — callers decide whether to warn, degrade, or fail, and
    record the outcome alongside the numbers. Same probability-1
    convergence precondition ([Invalid_argument] otherwise). *)

val expected_hitting_times :
  ?method_:hitting_method -> t -> legitimate:bool array -> float array
(** Expected number of steps to reach [L], per starting state (0 inside
    [L]). Requires probability-1 convergence; raises [Invalid_argument]
    otherwise. Default method: {!default_method}. A sparse solve that
    exhausts its sweep budget raises [Failure] naming
    [Markov.sparse_hitting_times] with the sweep count and final
    relative residual. *)

val absorption_probabilities :
  ?method_:hitting_method -> t -> legitimate:bool array -> float array
(** [absorption_probabilities chain ~legitimate] is, per state, the
    probability of eventually reaching [L] (1 inside [L]). Unlike
    {!expected_hitting_times} this is defined for chains that do NOT
    converge with probability 1 — e.g. the raw Algorithm 3 under a
    central randomized daemon, where the answer quantifies how much of
    the configuration space is doomed. Solves
    [p = P_restricted p + (one-step mass into L)] on states from which
    [L] is reachable; unreachable states get 0. Default method: sparse
    Gauss-Seidel with tolerance 1e-12; [Exact] solves the same
    restricted system by elimination per block (the differential
    oracle). *)

val transient_distribution : t -> init:float array -> steps:int -> float array
(** [transient_distribution chain ~init ~steps] pushes the initial
    distribution through [steps] chain steps. [init] must be a
    distribution over states (finite, non-negative, summing to 1
    within [1e-9]; [Invalid_argument] otherwise, NaN included). *)

val mass_in : float array -> bool array -> float
(** [mass_in dist set] sums the probability mass inside [set] — e.g.
    how much of the space has stabilized after [k] steps. *)

type hitting_stats = {
  times : float array;  (** {!expected_hitting_times} *)
  mean : float;  (** average over starting states, weighted if lumped *)
  max : float;  (** worst-case starting state *)
}

val stats_of_times : ?weights:int array -> float array -> hitting_stats
(** Summarize an already-solved hitting-time vector — what
    {!hitting_stats} applies after its solve. Use it with
    {!sparse_hitting_times} when the typed outcome is wanted alongside
    the summary. [weights] as in {!hitting_stats}. *)

val hitting_stats :
  ?method_:hitting_method ->
  ?weights:int array ->
  t ->
  legitimate:bool array ->
  hitting_stats
(** All hitting summary statistics from a single solve (callers wanting
    mean and max used to pay the cubic solve twice). [weights] gives
    per-state multiplicities for the mean — pass
    {!Statespace.orbit_sizes} for a lumped chain so the mean matches a
    uniformly random initial configuration of the {e full} space. *)

val hitting_stats_result :
  ?method_:hitting_method ->
  ?weights:int array ->
  t ->
  legitimate:bool array ->
  (hitting_stats * solve_outcome option, int) result
(** The probability-1 check and the solve of one Markov question, over
    one SCC traversal of the states outside [L], which the check runs
    (unless the kernel remembers it) and the solve reads: [Error c]
    names a state from which [L] is unreachable, as
    {!converges_with_prob_one} does, and [Ok] carries what
    {!hitting_stats_checked} returns. *)

val hitting_stats_checked :
  ?method_:hitting_method ->
  ?weights:int array ->
  t ->
  legitimate:bool array ->
  hitting_stats * solve_outcome option
(** {!hitting_stats} through {!hitting_times_checked}: the summary plus
    the sparse solver's typed outcome, never raising on [Max_sweeps]
    (the stats then summarize the partial iterate). Raises
    [Invalid_argument] without probability-1 convergence; prefer
    {!hitting_stats_result}, which returns that case instead. *)
