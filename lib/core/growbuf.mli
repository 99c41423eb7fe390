(** Growable buffers for streaming construction.

    {!Onthefly} grows its discovered codes and CSR rows in them and
    copies the rows once into an exact-size target array
    ({!Digraph.edges_of_buffers}); {!Statespace.successors} collects
    one configuration's successor codes in one. The fields are exposed
    for offset rebasing. *)

type 'a t = { mutable data : 'a array; mutable len : int; zero : 'a }

val create : int -> 'a -> 'a t
(** [create hint zero] has room for [max hint 16] elements. *)

val push_int : int t -> int -> unit
