(** Dijkstra's K-state token ring (reference [10] of the paper) — the
    classic {e deterministic self-stabilizing} baseline.

    The ring is rooted: process 0 is distinguished (the "bottom"
    machine), which is exactly the hypothesis whose removal (anonymity)
    makes deterministic self-stabilization impossible and motivates the
    paper's weak-stabilizing Algorithm 1. Process [p] reads its
    predecessor [p - 1 mod n]:

    {v
root  :: x_0 = x_{n-1}  -> x_0 <- (x_0 + 1) mod K
other :: x_p <> x_{p-1} -> x_p <- x_{p-1}
    v}

    A process holding the privilege (token) is an enabled one. With
    [K >= n] the protocol self-stabilizes to a single circulating
    privilege under the central daemon, and the privilege visits every
    process forever. *)

val make : n:int -> ?k:int -> unit -> int Stabcore.Protocol.t
(** [make ~n ()] uses [k = n + 1] states per process. Dijkstra's
    theorem needs [k >= n]; smaller [k >= 2] is accepted so the
    experiments can exhibit the classic failure just below the
    threshold (see the k-sweep in the test-suite and EXPERIMENTS.md).
    Requires [n >= 3]. *)

val spec : n:int -> int Stabcore.Spec.t
(** Legitimate: exactly one privilege. *)
