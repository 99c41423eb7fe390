(** Fixed-length bit vectors over configuration codes.

    The exhaustive analyses in {!Checker} and {!Digraph} manipulate
    many sets of configurations (alive, on-stack, membership masks). A
    [bool array] spends a word per element; this Bytes-backed
    representation spends a bit, which keeps whole-space masks resident
    in cache for the packed-graph passes. Indices are [0 .. length-1];
    out-of-range access raises [Invalid_argument]. *)

type t

val create : int -> t
(** All-zero set of the given length. *)

val length : t -> int

val mem : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val copy : t -> t

val cardinal : t -> int
(** Number of set bits (byte-wise table lookup). *)

val iter : (int -> unit) -> t -> unit
(** Applies the function to every set index, ascending. *)

val fold : ('acc -> int -> 'acc) -> t -> 'acc -> 'acc
(** Folds over set indices, ascending. *)

val is_empty : t -> bool

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val complement : t -> t
(** Fresh set with every bit flipped. *)

val elements : t -> int list
(** Set indices, ascending. *)
