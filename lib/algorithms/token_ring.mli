(** Algorithm 1 of the paper: token circulation on an anonymous
    unidirectional ring (Beauquier, Gradinariu, Johnen).

    Every process [p] holds one counter [dt_p] in [[0 .. m_N - 1]],
    where [m_N] is the smallest integer at least 2 that does not divide
    the ring size [N] — the minimal memory for probabilistic token
    circulation under a distributed scheduler. Process [p] {e holds a
    token} iff [dt_p <> (dt_pred + 1) mod m_N], where [pred] is its
    predecessor in the consistent direction. The unique action passes
    the token to the successor:

    {v A :: Token(p) -> dt_p <- (dt_pred(p) + 1) mod m_N v}

    The paper proves (Theorem 2) that this protocol is deterministically
    weak-stabilizing but {e not} self-stabilizing: deterministic
    self-stabilizing token circulation is impossible on anonymous rings
    (Herman, after Angluin). *)

val smallest_non_divisor : int -> int
(** [smallest_non_divisor n] is the paper's [m_N]: the least integer
    [>= 2] that does not divide [n]. Requires [n >= 1]. *)

val make : n:int -> int Stabcore.Protocol.t
(** The protocol on the ring of [n >= 3] processes; local state is the
    counter value. Process [p]'s predecessor is [(p - 1 + n) mod n]. *)

val token_holders : n:int -> int array -> int list
(** Sorted token holders; never empty (Lemma 4). *)

val spec : n:int -> int Stabcore.Spec.t
(** Legitimate: exactly one token holder. Step behaviour: the token
    moves from its holder to the holder's successor. *)

val legitimate_config : n:int -> int array
(** A configuration with exactly one token (holder: process 0), used to
    reproduce Figure 1. *)

val config_with_tokens_at : n:int -> int list -> int array
(** [config_with_tokens_at ~n holders] builds a configuration whose
    token holders are exactly [holders] (sorted, non-empty). Because
    token count constraints follow from ring arithmetic, not every
    request is satisfiable: raises [Invalid_argument] if impossible
    (e.g. zero tokens, Lemma 4). Used to set up the Theorem 6
    counter-example (two tokens at distance [n/2]). *)
