(** Undirected communication graphs for anonymous distributed systems.

    This is the paper's Section 2 network model: a finite undirected
    connected graph whose nodes are processes. Processes are anonymous —
    they can only tell their neighbors apart through *local indexes*
    [0 .. degree - 1]; this module maintains that local indexing so that
    protocol code never needs global identifiers. Global integer ids
    exist only as simulation bookkeeping. *)

type t
(** An immutable undirected graph. *)

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1].
    Self-loops and duplicate edges are rejected with [Invalid_argument].
    The neighbor lists are sorted by global id, which fixes the local
    indexing deterministically. *)

val ring : int -> t
(** [ring n] is the cycle [0 - 1 - ... - (n-1) - 0]. Requires [n >= 2];
    [ring 2] is the single edge. *)

val chain : int -> t
(** [chain n] is the path [0 - 1 - ... - (n-1)]. Requires [n >= 1]. *)

val star : int -> t
(** [star n] has center [0] linked to [1 .. n-1]. Requires [n >= 2]. *)

val random_tree : Stabrng.Rng.t -> int -> t
(** A uniformly random labelled tree on [n] nodes (random Pruefer
    sequence). Requires [n >= 1]. *)

val reorder_neighbors : t -> int -> int array -> t
(** [reorder_neighbors g p order] returns a graph identical to [g]
    except that [p]'s local indexing follows [order] (which must be a
    permutation of [neighbors g p]). In the anonymous model, local
    labelings are arbitrary — impossibility arguments such as the
    paper's Theorem 3 let the adversary pick symmetric labelings, which
    this function expresses. *)

val all_trees : int -> t list
(** [all_trees n] lists all trees on [n] nodes up to isomorphism
    (e.g. 11 trees for [n = 7]). Intended for exhaustive checking of
    tree protocols; requires [1 <= n <= 8]. *)

(** {1 Structure access} *)

val size : t -> int
(** Number of processes, the paper's [N]. *)

val degree : t -> int -> int
(** [degree g p] is the paper's Delta_p. *)

val max_degree : t -> int
(** The paper's Delta. *)

val neighbors : t -> int -> int array
(** [neighbors g p] are the global ids of p's neighbors, position [k] of
    the array being the neighbor with local index [k]. The returned
    array is fresh. *)

val neighbor : t -> int -> int -> int
(** [neighbor g p k] is the global id of p's neighbor of local index
    [k]. Requires [0 <= k < degree g p]. *)

val local_index : t -> int -> int -> int
(** [local_index g p q] is the local index under which [p] sees its
    neighbor [q]. Raises [Not_found] if [q] is not a neighbor of [p]. *)

val edges : t -> (int * int) list
(** Each undirected edge once, as [(min, max)] pairs, sorted. *)

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a
val iter_nodes : (int -> unit) -> t -> unit

(** {1 Metrics (paper Section 2, graph definitions)} *)

val is_connected : t -> bool
val is_tree : t -> bool
val is_ring : t -> bool

val dist : t -> int -> int -> int
(** BFS distance. Raises [Invalid_argument] on a disconnected pair. *)

val centers : t -> int list
(** Nodes of minimum eccentricity, sorted. For a tree this has one or
    two (neighboring) elements — the paper's Property 1. *)

val automorphisms : ?limit:int -> t -> int array list
(** The automorphism group of [g] as node permutations, the identity
    first. Rings yield the dihedral group (2n elements, rotations then
    reflections); trees are enumerated exactly by AHU-class backtracking
    rooted at the center(s), including the bicentral swap. Any other
    graph — or a group larger than [limit] (default 10000) — yields just
    the identity, which is always a sound under-approximation for
    symmetry reduction. *)
