(** Israeli-Jalfon random-walk token management (reference [17] of the
    paper) — the second probabilistic comparator.

    Tokens live on a bidirectional ring; at each step the daemon picks
    a token holder, which flips a fair coin and passes its token to the
    left or right neighbor; colliding tokens merge. Starting from any
    non-empty token set, the merging random walks leave a single token
    with probability 1, and the survivor keeps performing a random walk
    (probabilistic self-stabilizing mutual exclusion).

    Because passing a token writes the {e receiver's} state, the
    protocol does not fit the paper's own-variables-only shared-memory
    model used by {!Stabcore.Protocol}; following DESIGN.md's
    substitution rule we model it directly at the token level: a state
    is the set of token positions, encoded as a bitmask, and the
    analysis uses {!Stabcore.Markov.of_rows} and a dedicated sampler.
    The abstraction preserves exactly the behaviour the paper cites the
    protocol for (merging random walks, probability-1 convergence). *)

val chain : n:int -> central:bool -> Stabcore.Markov.t
(** The full chain over the [2^n] token bitmasks (requires
    [3 <= n <= 20]). The empty mask is absorbing but unreachable from
    any non-empty mask. With [central:true] the daemon activates one
    uniformly chosen token per step; with [central:false] it activates
    a uniformly chosen non-empty subset of tokens, all moving
    simultaneously (reading the pre-step positions, merges applied
    after all moves). *)

val legitimate : n:int -> bool array
(** Bitmap over masks: exactly one token. *)

val sample_convergence :
  runs:int ->
  max_steps:int ->
  Stabrng.Rng.t ->
  n:int ->
  init_tokens:int list ->
  Stabcore.Montecarlo.result
(** Test seam: an independent Monte-Carlo walk of the token
    abstraction that the tests check {!chain}'s exact hitting times
    against. Monte-Carlo convergence times (steps to a single token)
    with a central random daemon.
    [init_tokens] are the starting token positions (non-empty). *)
