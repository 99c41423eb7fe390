(** Growable buffers for streaming construction.

    {!Markov.of_space} does not know a range's entry count until the
    range has been walked, so each range accumulates into these
    doubling buffers and the ordered merge copies every buffer once
    into the exact-size packed arrays ({!concat} for the weights,
    {!Digraph.edges_of_buffers} for the targets). {!Onthefly} grows
    its discovered codes and CSR rows in them, and
    {!Statespace.successors} collects one configuration's successor
    codes in one. The fields are exposed for offset rebasing and
    in-place row compaction. *)

type 'a t = { mutable data : 'a array; mutable len : int; zero : 'a }

val create : int -> 'a -> 'a t
(** [create hint zero] has room for [max hint 16] elements. *)

val push_int : int t -> int -> unit
val push_float : float t -> float -> unit

val concat : 'a -> ('p -> 'a t) -> 'p list -> 'a array
(** [concat zero buf parts] is the contents of [buf p] for every part,
    in list order, as one exact-size array. Each buffer is emptied once
    copied, so the GC can reclaim it before the next structure of the
    merge is allocated. *)
