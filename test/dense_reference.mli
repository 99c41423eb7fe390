(** The whole-matrix elimination the blocked Markov solver replaced,
    kept as an independent oracle for it.

    Both questions are one system, [x = base + P x] over a set of
    transient states with every other entry of [x] a fixed boundary
    value. This reference solves it in one piece, as [(I - Q) x = b]
    with [Q] the transient part of [P] and [b] [base] plus each row's
    one-step mass into the boundary, by one {!Stablinalg.Matrix.solve}
    over all transient states: O(t^3) time and t^2 memory, so it is
    meant for chains of at most {!Stabcore.Markov.dense_limit}
    transient states. It reads the chain through
    {!Stabcore.Markov.row} only and shares no code with the blocked
    solver. *)

open Stabcore

val hitting_times : Markov.t -> legitimate:bool array -> float array
(** Expected steps to reach [legitimate], 0 inside it. The chain must
    converge to it with probability 1. *)

val absorption : Markov.t -> legitimate:bool array -> float array
(** The probability of ever reaching [legitimate]: 1 inside it, 0 where
    it is unreachable. *)
