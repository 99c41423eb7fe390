(** Algorithm 2 of the paper: weak-stabilizing leader election (network
    orientation) on anonymous trees, using log Delta bits per process.

    Each process [p] keeps one parent pointer [Par_p] in
    [Neig_p ∪ {⊥}]; [p] considers itself the leader iff [Par_p = ⊥].
    With [Children_p = {q ∈ Neig_p : Par_q = p}], the three actions
    are:

    {v
A1 :: Par_p <> ⊥ ∧ |Children_p| = |Neig_p|            -> Par_p <- ⊥
A2 :: Par_p <> ⊥ ∧ Neig_p \ (Children_p ∪ {Par_p}) <> ∅ -> Par_p <- (Par_p + 1) mod Δ_p
A3 :: Par_p = ⊥ ∧ |Children_p| < |Neig_p|              -> Par_p <- min (Neig_p \ Children_p)
    v}

    Parent pointers are local neighbor indexes, so A2's increment walks
    p's neighborhood cyclically. Terminal configurations are exactly
    those where one process is the root and every other process points
    toward it (Lemma 10); Theorem 4 states weak stabilization under the
    distributed strongly fair scheduler, and Theorem 3 that no
    deterministic {e self}-stabilizing solution exists. Figure 3's
    synchronous oscillation on the 4-chain shows the protocol is indeed
    not self-stabilizing. *)

type par = Root  (** the paper's [⊥] *) | Parent of int  (** local neighbor index *)

val make : Stabgraph.Graph.t -> par Stabcore.Protocol.t
(** The protocol on a tree; raises [Invalid_argument] on non-trees. *)

val relabel : Stabgraph.Graph.t -> perm:int array -> int -> par -> par
(** Translate a local state across a tree automorphism for symmetry
    reduction: parent pointers are local neighbor indexes, so
    [relabel g ~perm p (Parent k)] re-indexes the pointer for residence
    at [perm.(p)]. Pass to {!Stabcore.Statespace.quotient}. *)

val leaders : par array -> int list

val is_lc : Stabgraph.Graph.t -> par array -> bool
(** Definition 13: exactly one process [p] has [Par_p = ⊥] and every
    other process's ParPath reaches [p]. *)

val spec : Stabgraph.Graph.t -> par Stabcore.Spec.t
(** Legitimate set: [is_lc]; by Lemma 10 these are exactly the terminal
    configurations, so there is no step behaviour to constrain. *)

val fig2_tree : Stabgraph.Graph.t
(** An 8-process tree reconstructing the paper's Figure 2 scenario
    (the published figure conveys the arrows graphically; we rebuild an
    equivalent instance). Global ids map to the paper's labels as
    [P_i = node i-1]; edges: P1-P3, P2-P3, P3-P5, P4-P6, P5-P6, P5-P8,
    P6-P7. *)

val fig2_initial : par array
(** The scenario's configuration (i): every process points at a
    neighbor (no leader), and two processes are A1-enabled candidates
    to seize leadership. *)

val fig2_script : int list list
(** A five-step activation sequence mirroring Figure 2's (i) -> (v):
    a process seizes leadership (A1), a second one does too, the first
    abdicates (A3) after a neighbor repoints (A2), and the remaining
    pointers settle — replaying it from {!fig2_initial} ends in a
    terminal configuration whose unique leader is P6. *)
