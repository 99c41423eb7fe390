(** Machine-checked reproductions of the paper's theorems (T1-T9 in
    DESIGN.md). Each check returns both structured verdicts — used by
    the test-suite and [stabsim theorems] — and a printable report. *)

type row = { label : string; holds : bool; detail : string }

type result = { id : string; claim : string; rows : row list }

val all_hold : result -> bool

val report : result -> Report.t
(** Rendered as a table: instance / verdict / detail. *)

val all : (string * (unit -> result)) list
(** T1, T2, T3, T4, T5, T6, T7, T8/T9 in order, each id paired with the
    check that proves it, so one theorem can be run without computing
    the others:
    - T1: weak = self under the synchronous scheduler, for every
      bundled deterministic protocol on small instances.
    - T2: Algorithm 1 is weak- but not self-stabilizing (nor under
      strong fairness) on rings of 3..7.
    - T3: symmetric-set closure on the adversarially labelled 4-chain,
      plus no symmetric configuration being legitimate or terminal.
    - T4: Algorithm 2 is weak- but not self-stabilizing on every tree
      with up to 6 nodes.
    - T5: Gouda's implication: every finite weak-stabilizing instance
      converges with probability 1 under the uniform randomized
      distributed daemon, with its expected hitting times as detail.
    - T6: the alternating two-token execution on the 6-ring is strongly
      fair, never converges, and is not Gouda-fair.
    - T7: weak-stabilization = probability-1 convergence under
      randomized schedulers, across bundled protocols (positive and
      negative instances).
    - T8/T9: transformed Algorithms 1/2/3 converge with probability 1
      under the synchronous and distributed randomized schedulers, with
      closure. *)
