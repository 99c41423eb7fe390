(** Dijkstra's three-state machines (the third solution of the 1974
    CACM paper) — mutual exclusion on a line with {e two} distinguished
    machines, three states per process.

    Machines 0 (bottom) and n-1 (top) are special; the top machine also
    reads the bottom machine's state (the line is physically a ring).
    With [S] a machine's state, [L]/[R] its left/right neighbor and
    [B] the bottom machine, all arithmetic mod 3:

    {v
bottom :: S+1 = R             -> S := S-1
normal :: S+1 = L  or S+1 = R -> S := that neighbor  (left preferred)
top    :: L = B and L+1 <> S  -> S := L+1
    v}

    A privilege is an enabled machine. The checker verifies closure of
    the single-privilege set and certain convergence under the central
    daemon for n = 3..7 (see the test-suite) — reproducing Dijkstra's
    claim with three states per process instead of the K-state
    solution's n+1. The merged normal rule fires the left privilege
    when a machine holds both, a determinization of Dijkstra's "a
    machine with a privilege moves"; the verdicts hold for it. *)

val make : n:int -> int Stabcore.Protocol.t
(** Requires [n >= 3]. The topology is the [n]-ring so the top machine
    can read the bottom one; normal machines ignore that edge. *)

val spec : n:int -> int Stabcore.Spec.t
(** Legitimate: exactly one privilege. *)
