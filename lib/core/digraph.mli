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

type edges = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A CSR target array: one 32-bit node per entry, outside the OCaml
    heap. Every graph of the tree stores its targets in one, so nodes
    must be below [2^31] ({!create_edges}). *)

val create_edges : nodes:int -> int -> edges
(** [create_edges ~nodes k] is a fresh target array of [k] entries
    for a graph of [nodes] nodes; its contents are unspecified until
    written. Raises [Invalid_argument] when [nodes > Int32.max_int],
    before allocating anything: such a node would not survive the
    narrowing. *)

val target : edges -> int -> int
(** [target dst i] is entry [i] of [dst], bounds-checked. *)

val set_target : edges -> int -> int -> unit
(** [set_target dst i v] stores node [v] at entry [i], bounds-checked;
    [v] must be a node of the graph {!create_edges} sized [dst] for. *)

val edges_of_buffers : nodes:int -> int Growbuf.t list -> edges
(** The contents of the buffers, in list order, as one exact-size
    target array from {!create_edges}. Each buffer is emptied once
    copied, so the GC can reclaim it before the next one is read. *)

type t = {
  n : int;  (** nodes are [0 .. n - 1] *)
  off : int array;
      (** [off.(0) .. off.(n)] non-decreasing (later entries are
          ignored): the successors of [v] are entries
          [off.(v) .. off.(v + 1) - 1] of [dst] *)
  dst : edges;  (** successor targets; entries past [off.(n)] are ignored *)
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

val heights_outside : t -> inside:bool array -> (int array, int list) result
(** The longest-path heights of the subgraph outside [inside], or a
    cycle through outside nodes only if it has one. The height of a
    node in [inside], and of an outside node with no successor, is 0;
    any other outside node's height is the maximum over its successors
    of 1 if the successor is in [inside], else 1 + the successor's
    height. One depth-first search from each unvisited outside node in
    ascending order fills each height as its node finishes; the first
    back edge [u -> v] found instead returns [Error] with the cycle it
    closes, listed along its edges from [v] to [u]: the head is the
    back-edge target. *)

val cycle_outside : t -> inside:bool array -> int list option
(** A cycle through nodes outside [inside] only, or [None] if the
    subgraph they induce is acyclic: {!heights_outside} with the
    heights dropped, so the cycle is the one it returns. *)

val sccs : ?keep:(int -> bool) -> t -> int array list
(** Tarjan's strongly connected components of the subgraph induced by
    the nodes [keep] accepts (default: all), iteratively, so deep
    graphs cannot exhaust the stack. Components come in the order
    Tarjan completes them, which is reverse topological order of the
    condensation, sinks first: every edge leaving a component lands in
    an earlier one or outside [keep]. Members are ascending. *)
