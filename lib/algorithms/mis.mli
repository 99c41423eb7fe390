(** Self-stabilizing maximal independent set (the classic
    enter/retreat rules).

    Each process holds one boolean ([In] / [Out]):

    {v
enter   :: p = Out ∧ ∀q ∈ Neig_p: q = Out -> p <- In
retreat :: p = In  ∧ ∃q ∈ Neig_p: q = In  -> p <- Out
    v}

    Terminal configurations are exactly the maximal independent sets.
    Like {!Coloring}, the protocol is deterministically
    self-stabilizing under the central daemon (a classic exercise) but
    only weak-stabilizing under distributed or synchronous daemons —
    two adjacent [Out] processes entering together collide and retreat
    together, forever. The paper's transformer repairs it
    (Theorems 8/9), making this the simplest non-trivial client of the
    whole pipeline after Algorithm 3. *)

val make : Stabgraph.Graph.t -> bool Stabcore.Protocol.t
(** [true] = in the set. *)

val spec : Stabgraph.Graph.t -> bool Stabcore.Spec.t
(** Legitimate: independent, and every non-member has a member
    neighbor (the terminal configurations). *)
