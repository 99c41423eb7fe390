(** The paper's first weak-stabilizing leader election on anonymous
    trees (Section 3.2, "a solution using log N bits").

    The construction composes the {!Centers} algorithm with a boolean
    tie-break [B]: once the center computation settles, either a unique
    process satisfies the center predicate — it is the leader — or two
    neighboring processes do (Property 1). In the latter case a center
    whose [B] equals the other center's [B] may flip its own bit:

    {v
L1 :: l_p <> desired(p)                                    -> l_p <- desired(p)
L2 :: l_p = desired(p) ∧ Center(p)
      ∧ ∃q ∈ Neig_p: l_q = l_p ∧ B_q = B_p                 -> B_p <- not B_p
    v}

    From a configuration where both centers carry the same bit, it is
    always {e possible} to reach a terminal configuration in one step —
    activate exactly one of them — but a synchronous daemon flips both
    bits together forever: weak-stabilizing, not self-stabilizing. *)

type state = { level : int; flag : bool }

val make : Stabgraph.Graph.t -> state Stabcore.Protocol.t
(** Raises [Invalid_argument] on non-trees. *)


val leaders : Stabgraph.Graph.t -> state array -> int list

val spec : Stabgraph.Graph.t -> state Stabcore.Spec.t
(** Legitimate: terminal with exactly one leader. *)
