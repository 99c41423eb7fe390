(** The graph kernel: every traversal the analyses run over a packed
    successor relation, written once.

    {!Checker} (the expanded transition relation), {!Markov} (the
    positive-probability edges of a chain) and {!Onthefly} (the
    explored sub-system) each hand their successor relation to this
    module as a compressed-sparse-row view ({!t}) and read the answers
    back; none of them holds a traversal of its own. A row is stored
    either as its targets ({!Edges}) or, for a deterministic protocol
    under the distributed daemon, factored as the per-process deltas
    whose non-empty subset sums are its targets ({!Subsets}); every
    pass below runs on both, with the per-edge step inside this module.
    Traversals visit nodes in ascending order and each node's
    successors in row order, so every witness below is a deterministic
    function of the rows. Every pass runs forward over the rows it is
    given; {!reaches} decides "can reach a target" without the
    predecessor relation, which only a backward distance needs
    ({!reverse}).

    Every per-node array argument ([seeds], [inside], [target]) must
    have length [n]; a pass raises [Invalid_argument], naming itself,
    on any other length.

    An independent validator of these answers must not call this
    module. *)

type edges = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A row array: one signed 32-bit entry per slot, outside the OCaml
    heap. Every graph of the tree stores its rows in one, as targets or
    as deltas between nodes, so nodes must be below [2^31]
    ({!create_edges}). *)

val create_edges : nodes:int -> int -> edges
(** [create_edges ~nodes k] is a fresh target array of [k] entries
    for a graph of [nodes] nodes; its contents are unspecified until
    written. Raises [Invalid_argument] when [nodes > Int32.max_int],
    before allocating anything: such a node would not survive the
    narrowing. *)

val target : edges -> int -> int
(** [target dst i] is entry [i] of [dst], bounds-checked. *)

val set_target : edges -> int -> int -> unit
(** [set_target dst i v] stores [v] at entry [i], bounds-checked; [v]
    must be a node of the graph {!create_edges} sized [dst] for, or the
    difference of two of its nodes. *)

val edges_of_buffers : nodes:int -> int Growbuf.t list -> edges
(** The contents of the buffers, in list order, as one exact-size
    target array from {!create_edges}. Each buffer is emptied once
    copied, so the GC can reclaim it before the next one is read. *)

type rows =
  | Edges of edges
      (** the successors of [v] are entries [off.(v) .. off.(v + 1) - 1],
          in order; entries past [off.(n)] are ignored *)
  | Subsets of edges
      (** entries [off.(v) .. off.(v + 1) - 1] are [k] deltas
          [d_0 .. d_(k-1)], and the successors of [v] are the [2^k - 1]
          sums [v + sum of d_j over the set bits j of m], for masks [m]
          from 1 to [2^k - 1] in ascending order: the distributed
          daemon's steps of a deterministic protocol, one delta per
          enabled process. Every sum must be a node; [k] is at most 61. *)
(** Where a row's successors come from. Both give the same passes the
    same answers on the same successor lists. *)

type t = {
  n : int;  (** nodes are [0 .. n - 1] *)
  off : int array;
      (** [off.(0) .. off.(n)] non-decreasing (later entries are
          ignored): node [v]'s row is entries [off.(v) .. off.(v + 1) - 1]
          of [rows] *)
  rows : rows;
}

val out_degree : t -> int -> int
(** [out_degree g v] is the length of [v]'s successor list: its entry
    count, or [2^k - 1] in a {!Subsets} row of [k] deltas. *)

val edge_count : t -> int
(** The sum of {!out_degree} over the nodes: [off.(n)] for {!Edges},
    one pass over the offsets for {!Subsets}. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** [iter_succ g v f] calls [f] on each successor of [v], in row
    order, repeats included. *)

val exists_succ : t -> int -> (int -> bool) -> bool
(** [exists_succ g v p] is whether [p] holds of some successor of [v],
    testing them in row order and stopping at the first that passes. *)

val reverse : t -> t
(** The predecessor relation: for every edge [u -> v] of the input,
    [v -> u], as {!Edges} rows. Predecessors of a node come in
    ascending order; an edge listed twice in the input is listed twice
    here. A full copy of every edge, factored or not: each build ticks {!Stabobs.Obs.checker_reverse_builds}
    and runs in a ["checker.reverse"] span. *)

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
    back-edge target.

    The module remembers one answer of this search, its last: the
    graph, held through an ephemeron so that the memo never keeps a
    graph alive, the contents of [inside], packed to one bit per node,
    and the result. A call on the same graph (physical equality of the
    record) with an [inside] of equal contents returns that answer
    without a search; any other call searches and replaces it. Each
    call returns a fresh heights array, so neither mutating it nor
    mutating [inside] after the call changes a later answer. A graph's
    rows must not change after a call on it. The slot is an [Atomic],
    so domains may call concurrently; a race only costs a search. Each
    search ticks {!Stabobs.Obs.checker_heights_passes}. {!blocks_outside}
    keeps a memo of its own on the same terms. *)

val cycle_outside : t -> inside:bool array -> int list option
(** A cycle through nodes outside [inside] only, or [None] if the
    subgraph they induce is acyclic: {!heights_outside} with the
    heights dropped, so the cycle is the one it returns. It shares that
    memo, and copies no heights. *)

val sccs : ?keep:(int -> bool) -> t -> int array list
(** Tarjan's strongly connected components of the subgraph induced by
    the nodes [keep] accepts (default: all), iteratively, so deep
    graphs cannot exhaust the stack. Components come in the order
    Tarjan completes them, which is reverse topological order of the
    condensation, sinks first: every edge leaving a component lands in
    an earlier one or outside [keep]. Members are ascending. Nothing is
    remembered: each call runs the pass and ticks
    {!Stabobs.Obs.checker_scc_builds}. *)

type blocks
(** The strongly connected components of the subgraph outside a node
    set, flat: one member sequence, block after block, plus the
    offsets where each block starts, and one flag per block. *)

val blocks_outside : t -> inside:bool array -> blocks
(** {!sccs} with [keep] the nodes outside [inside], blocks and members
    in the same order, each block flagged when it reaches [inside]: a
    member has an edge into [inside], or into an earlier block that
    reaches it. The flags are set inside the Tarjan traversal, so the
    pass reads each edge once. Remembered like {!heights_outside}, in
    a one-entry memo of its own, and shared with {!reaches}: only a
    pass that runs ticks {!Stabobs.Obs.checker_reaches_passes} and
    {!Stabobs.Obs.checker_scc_builds} and opens a ["checker.sccs"]
    span. The answer is read-only: no accessor below hands out the
    memo's arrays. *)

val block_count : blocks -> int

val block_start : blocks -> int -> int
(** [block_start b k], for [k] from 0 to [block_count b]: block [k]'s
    members are the positions [block_start b k .. block_start b (k + 1) - 1]
    of the member sequence, so [block_start b (block_count b)] is the
    number of nodes outside [inside]. *)

val member : blocks -> int -> int
(** The node at a position of the member sequence. *)

val block_members : blocks -> int -> int array
(** A fresh copy of block [k]'s members, ascending. *)

val block_reaches : blocks -> int -> bool
(** Whether block [k] reaches [inside]. *)

val reaches : t -> target:bool array -> bool array
(** The nodes from which some path (of zero or more edges) reaches a
    [target] node: {!reach} on {!reverse} from [target], node for node,
    decided forward: the targets, and the members of the blocks of
    {!blocks_outside} with [inside = target] that reach it. So the
    traversal visits only the nodes outside [target], and a call after
    {!blocks_outside} on the same graph and set runs none. In a finite
    graph, every node reaches the target set iff every bottom
    component meets it (Thm 7's criterion). *)

val first_unreaching : t -> target:bool array -> int option
(** The smallest node from which no path reaches a [target] node, or
    [None] if every node reaches one: the first node {!reaches} leaves
    unmarked, read off the blocks of {!blocks_outside} with
    [inside = target] (the least member of a block that does not
    reach it), from the same memo and with no per-node array built. *)
