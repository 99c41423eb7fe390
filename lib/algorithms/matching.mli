(** Hsu-Huang self-stabilizing maximal matching.

    Each process keeps one pointer in [Neig_p ∪ {null}]; a matched pair
    points at each other. With [j -> i] meaning "j's pointer designates
    i", the three rules (determinized by lowest local index) are:

    {v
R1 (marry)   :: p -> null ∧ ∃q: q -> p                -> p -> q
R2 (propose) :: p -> null ∧ ∀q: q ↛ p ∧ ∃q: q -> null -> p -> q
R3 (abandon) :: p -> q ∧ q -> r, r ≠ p                -> p -> null
    v}

    Hsu and Huang proved central-daemon self-stabilization to a
    maximal matching. A pleasant surprise the checker establishes
    exhaustively (instances up to 6 processes, see the test-suite): in
    this determinized variant — lowest local index breaking ties, all
    activated processes reading the pre-step configuration — the
    protocol self-stabilizes under the {e distributed and synchronous}
    daemons too, because two neighbors proposing to each other
    simultaneously form a marriage rather than chattering. Contrast
    with {!Coloring}, where the same simultaneity is destructive. *)

type pointer = Null | Pointer of int  (** local neighbor index *)

val make : Stabgraph.Graph.t -> pointer Stabcore.Protocol.t

val spec : Stabgraph.Graph.t -> pointer Stabcore.Spec.t
(** Legitimate: the mutually-pointing pairs form a matching that no
    edge between two unmatched processes could extend, and every
    pointer is either [Null] or part of a matched pair (the terminal
    configurations). *)
