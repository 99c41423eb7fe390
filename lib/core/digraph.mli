(** The graph kernel: every traversal the analyses run over a packed
    successor relation, written once.

    {!Checker} (the expanded transition relation), {!Markov} (the
    positive-probability edges of a chain) and {!Onthefly} (the
    explored sub-system) each hand their successor relation to this
    module as a flat compressed-sparse-row view and read the answers
    back; none of them holds a traversal of its own. Traversals visit
    nodes in ascending order and each node's successors in CSR order,
    so every witness below is a deterministic function of the CSR.

    An independent validator of these answers must not call this
    module. *)

type t = {
  n : int;  (** nodes are [0 .. n - 1] *)
  off : int array;
      (** [off.(0) .. off.(n)] non-decreasing (later entries are
          ignored): the successors of [v] are
          [dst.(off.(v)) .. dst.(off.(v + 1) - 1)] *)
  dst : int array;  (** successor targets; entries past [off.(n)] are ignored *)
}

val reverse : t -> t
(** The predecessor relation: for every edge [u -> v] of the input,
    [v -> u]. Predecessors of a node come in ascending order; an edge
    listed twice in the input is listed twice here. *)

val distances : ?within:(int -> bool) -> t -> seeds:bool array -> int array
(** Breadth-first search from every seed along the edges of [t]:
    the length of a shortest path from some seed to each node,
    [max_int] if there is none. With [within], only nodes it
    accepts are entered, the seeds included, so the search is the
    closure of the seeds inside [within]. Run on {!reverse} it is the
    backward search: each node's distance {e to} the seed set. *)

val reach : ?within:(int -> bool) -> t -> seeds:bool array -> bool array
(** The nodes {!distances} reaches. *)

val cycle_outside : t -> inside:bool array -> int list option
(** A cycle through nodes outside [inside] only, or [None] if the
    subgraph they induce is acyclic. Depth-first search from each
    unvisited outside node in ascending order; the first back edge
    [u -> v] found closes the returned cycle, listed along its edges
    from [v] to [u]: the head is the back-edge target. *)

val sccs : ?keep:(int -> bool) -> t -> int array list
(** Tarjan's strongly connected components of the subgraph induced by
    the nodes [keep] accepts (default: all), iteratively, so deep
    graphs cannot exhaust the stack. Components come in the order
    Tarjan completes them, which is reverse topological order of the
    condensation, sinks first: every edge leaving a component lands in
    an earlier one or outside [keep]. Members are ascending. *)
