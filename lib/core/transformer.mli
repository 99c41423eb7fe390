(** The Section 4 weak-to-probabilistic transformer.

    The paper's scheme adds one boolean P-variable [B_i] per process and
    rewrites every action [A :: G -> S] into

    {v Trans(A) :: G -> B_i <- Rand(true, false); if B_i then S v}

    i.e. an activated process first tosses a fair coin, stores the
    result in [B_i], and performs the original statement only on
    [true]. Theorems 8 and 9: if the input system is deterministic,
    weak-stabilizing for [SP] under a distributed scheduler and has
    finitely many configurations, the transformed system is
    probabilistically self-stabilizing for [SP] under both the
    synchronous and the randomized distributed schedulers. *)

type 'a coin_state = { core : 'a; coin : bool }
(** The transformed local state: the original state plus [B_i]. *)

val randomize : ?coin_bias:float -> 'a Protocol.t -> 'a coin_state Protocol.t
(** [randomize p] is the paper's [Trans]. Guards read only [core]
    fields, exactly as in the paper (the original guard cannot mention
    the fresh variable [B]). [coin_bias] (default 0.5) is the
    probability that the toss succeeds; the paper uses a fair coin, and
    any bias in (0, 1) preserves Theorems 8/9. The transformed protocol
    is randomized, its name is suffixed with ["+trans"], and its domain
    is the original one crossed with [{false, true}]. *)

val lift_spec : 'a Spec.t -> 'a coin_state Spec.t
(** Legitimacy of the transformed system is the paper's [L_Prob]: the
    projection on the original variables lies in [L_Det]; the coin
    values are irrelevant. The per-step behaviour is lifted {e up to
    stuttering}: a transformed step whose coin tosses all fail leaves
    the projection unchanged and is accepted, matching the paper's
    Lemma 1 (either no assignment is performed on the common variables,
    or the step projects to an original step). *)

val lift_config : 'a array -> coins:bool array -> 'a coin_state array
