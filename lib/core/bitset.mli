(** Fixed-length bit vectors over configuration codes.

    The exhaustive analyses in {!Checker} and {!Digraph} manipulate
    many sets of configurations (alive, on-stack, membership masks). A
    [bool array] spends a word per element; this Bytes-backed
    representation spends a bit, which keeps whole-space masks resident
    in cache for the packed-graph passes. Indices of [create n] are [0 .. n-1];
    out-of-range access raises [Invalid_argument]. *)

type t

val create : int -> t
(** All-zero set of the given length. *)

val mem : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
