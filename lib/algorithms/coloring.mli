(** Greedy (Delta+1)-coloring — the canonical "conflict" protocol
    behind the paper's reference [14] (Gradinariu-Tixeuil conflict
    managers).

    Each process holds a color; a process in conflict with a neighbor
    recolors itself with the smallest color unused in its neighborhood:

    {v A :: ∃q ∈ Neig_p: c_q = c_p -> c_p <- min (colors \ { c_q }) v}

    A recoloring never creates a new conflict for the mover, so under a
    {e central} daemon the number of conflicting processes strictly
    decreases: the protocol is deterministically self-stabilizing.
    Under a {e distributed} (or synchronous) daemon two conflicting
    neighbors can recolor simultaneously to the same value and oscillate
    forever — the protocol degrades to weak-stabilizing, exactly the
    gap the paper's transformer closes (Theorems 8/9): the transformed
    version is probabilistically self-stabilizing under both. *)

val make : ?colors:int -> Stabgraph.Graph.t -> int Stabcore.Protocol.t
(** [make g] uses [colors = max_degree g + 1] (the minimum that makes
    the greedy rule total); pass more for slacker palettes. Raises
    [Invalid_argument] if [colors <= max_degree g]. *)

val spec : Stabgraph.Graph.t -> int Stabcore.Spec.t
(** Legitimate: proper colorings, where no edge is monochromatic
    (exactly the terminal configurations). *)
