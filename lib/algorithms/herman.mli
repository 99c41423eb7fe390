(** Herman's probabilistic self-stabilizing token ring (reference [16]
    of the paper) — the canonical {e probabilistic} comparator.

    Synchronous protocol on an odd-size unidirectional ring of boolean
    values. Process [p] holds a token iff [x_p = x_pred]. Every step,
    all processes update simultaneously: a token holder draws a fresh
    random bit, a non-holder copies its predecessor. Token count parity
    is invariant and odd, tokens perform merging random walks, and the
    system converges with probability 1 to a single circulating token,
    in expected O(n^2) steps.

    In the paper's terms: the system is probabilistically
    self-stabilizing under the synchronous scheduler, the very setting
    in which deterministic protocols were shown equivalent to
    weak-stabilizing ones (Theorem 1) — randomness breaks the symmetry
    that dooms determinism (Theorem 3's argument). *)

val make : n:int -> bool Stabcore.Protocol.t
(** Requires odd [n >= 3]. Every process is always enabled; run it
    under the synchronous scheduler / [Markov.Sync] only. *)

val spec : n:int -> bool Stabcore.Spec.t
(** Legitimate: exactly one token. *)
