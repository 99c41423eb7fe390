(** The full-graph reachability pass that {!Stabcore.Digraph.reaches}
    replaced, kept as an oracle for the kernel's one pass over the
    nodes outside the target set.

    It decomposes the whole graph, targets included, with
    {!Stabcore.Digraph.sccs}, then marks a component, sinks first, when
    a member is a target or has an edge into a marked node. It shares
    no code with the kernel's reach flags. *)

val reaches : Stabcore.Digraph.t -> target:bool array -> bool array
(** The nodes from which some path (of zero or more edges) reaches a
    [target] node. *)
