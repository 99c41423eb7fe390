(** Self-stabilizing BFS spanning tree (rooted).

    The classic silent protocol (Dolev, Israeli, Moran lineage): a
    distinguished root holds distance 0; every other process keeps a
    distance and a parent pointer and repairs them toward

    {v dist_p = 1 + min { dist_q : q ∈ Neig_p },  par_p -> an argmin v}

    Distances contract monotonically to BFS level and the parent
    pointers then form a BFS spanning tree — self-stabilizing even
    under the unfair distributed daemon (verified exhaustively in the
    test-suite), in contrast to the anonymous protocols where the
    paper's impossibility results bite. Rootedness is the whole trick:
    exactly the symmetry-breaking assumption anonymity forbids. *)

type state = { dist : int; parent : int  (** local index; ignored at the root *) }

val make : Stabgraph.Graph.t -> state Stabcore.Protocol.t
(** Process 0 is the distinguished root. Requires a connected graph.
    Distances live in [[0 .. n]]. *)

val spec : Stabgraph.Graph.t -> state Stabcore.Spec.t
(** Legitimate: every process's distance equals its BFS distance from
    the root and its parent is a neighbor one level closer (vacuous at
    the root) — exactly the terminal configurations. *)
