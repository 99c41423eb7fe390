(** Dense integer encoding of configurations.

    The explicit-state checker and the Markov analysis index the whole
    configuration space [C] (the paper assumes [I = C]) by integers.
    With per-process finite domains [D_0, ..., D_{n-1}], configurations
    are mixed-radix numerals: the code of a configuration is
    [sum_i index(s_i) * prod_{j<i} |D_j|]. *)

type 'a t

val make : equal:('a -> 'a -> bool) -> 'a list array -> 'a t
(** [make ~equal domains] requires every domain to be non-empty and
    duplicate-free (w.r.t. [equal]), and the total space size
    [prod |D_i|] to fit in an OCaml [int]; raises [Invalid_argument]
    otherwise. *)

val of_protocol : 'a Protocol.t -> 'a t
(** Encoding for the full configuration space of a protocol. *)

val count : 'a t -> int
(** Total number of configurations, the paper's [|C|]. *)

val processes : 'a t -> int

val domain_size : 'a t -> int -> int
(** [domain_size t i] is [|D_i|]. *)

val value : 'a t -> int -> int -> 'a
(** [value t i d] is the [d]-th state of process [i]'s domain. *)

val digit : 'a t -> int -> int -> int
(** [digit t i code] is process [i]'s mixed-radix digit inside [code] —
    the domain index of its state in the decoded configuration. *)

val weight : 'a t -> int -> int
(** [weight t i] is the positional weight [prod_{j<i} |D_j|]. *)

val index_in_domain : 'a t -> int -> 'a -> int
(** [index_in_domain t i s] is the domain index of state [s] at process
    [i]; raises [Invalid_argument] when [s] is not listed, like
    {!encode}. *)

val index_opt : 'a t -> int -> 'a -> int option
(** [index_opt t i s] is the domain index of state [s] at process [i],
    or [None] if the state is outside the domain. *)

val encode : 'a t -> 'a array -> int
(** Raises [Invalid_argument] if some state is outside its domain. *)

val decode : 'a t -> int -> 'a array
(** Fresh array; inverse of {!encode}. *)

val decode_into : 'a t -> int -> 'a array -> unit
(** [decode_into t code cfg] overwrites [cfg] with the configuration of
    [code], so a hot loop can reuse one buffer. [cfg] must have one
    slot per process. *)

val iter : 'a t -> (int -> 'a array -> unit) -> unit
(** Iterate over the full space in code order. The configuration array
    is reused between calls; copy it if you keep it. *)
