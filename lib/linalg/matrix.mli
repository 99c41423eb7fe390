(** Dense float matrices and linear solving.

    Sized for the absorbing-Markov-chain systems of the stabilization
    analysis (a few thousand configurations): plain row-major arrays
    and Gaussian elimination with partial pivoting are enough and keep
    the whole pipeline dependency-free. *)

type t
(** A mutable dense square matrix. *)

val identity : int -> t
(** [identity n] is the [n × n] identity. Requires [n > 0]. *)

val get : t -> int -> int -> float
(** Test seam: the tests read entries back through it, and the
    whole-matrix Markov reference accumulates into them. *)

val set : t -> int -> int -> float -> unit

val solve : t -> float array -> float array
(** Test seam: the matrix tests and the whole-matrix Markov reference
    solve through it; the library eliminates in place.
    [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. [a] must be non-singular (within [1e-12]
    pivot tolerance) and is not modified. Raises [Failure] on a
    (numerically) singular system. *)

val solve_in_place : t -> float array -> unit
(** [solve_in_place a b] is {!solve} without its two copies: the
    solution lands in [b], and [a] is left eliminated. The arithmetic
    is the same, so the solution is bit for bit {!solve}'s. *)
