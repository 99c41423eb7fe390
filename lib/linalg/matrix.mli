(** Dense float matrices and linear solving.

    Sized for the absorbing-Markov-chain systems of the stabilization
    analysis (a few thousand configurations): plain row-major arrays
    and Gaussian elimination with partial pivoting are enough and keep
    the whole pipeline dependency-free. *)

type t
(** A mutable dense matrix. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. Dimensions must be positive. *)

val identity : int -> t

val of_rows : float array array -> t
(** Copies a non-ragged, non-empty array of rows. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val copy : t -> t

val mul : t -> t -> t
(** Matrix product; dimensions must agree. *)

val solve : t -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. [a] must be square and non-singular (within [1e-12]
    pivot tolerance) and is not modified. Raises [Failure] on a
    (numerically) singular system. *)

val pp : Format.formatter -> t -> unit
