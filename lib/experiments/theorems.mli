(** Machine-checked reproductions of the paper's theorems (T1-T9 in
    DESIGN.md). Each function returns both structured verdicts — used
    by the test-suite and [stabsim theorems] — and a printable
    report. *)

type row = { label : string; holds : bool; detail : string }

type result = { id : string; claim : string; rows : row list }

val all_hold : result -> bool

val report : result -> Report.t
(** Rendered as a table: instance / verdict / detail. *)

val theorem1 : unit -> result
(** Weak = self under the synchronous scheduler, for every bundled
    deterministic protocol on small instances. *)

val theorem2 : ?max_n:int -> ?quotient:bool -> unit -> result
(** Algorithm 1 is weak- but not self-stabilizing (nor under strong
    fairness) on rings of 3..max_n (default 7). With [quotient:true]
    the verdicts are computed on the rotation-quotient state space
    (identical by lumpability; roughly n-fold fewer states). *)

val theorem3 : unit -> result
(** Symmetric-set closure on the adversarially labelled 4-chain, plus
    no symmetric configuration being legitimate or terminal. *)

val theorem4 : ?max_n:int -> ?quotient:bool -> unit -> result
(** Algorithm 2 is weak- but not self-stabilizing on every tree with up
    to [max_n] (default 6) nodes. [quotient:true] routes each instance
    through {!Stabcore.Statespace.quotient}; Algorithm 2's local-index
    arithmetic makes the validated group trivial on most trees, so this
    documents soundness rather than buying speed (see
    docs/symmetry.md). *)

val theorem5 : unit -> result
(** Gouda's implication: every finite weak-stabilizing instance
    converges with probability 1 under the uniform randomized
    distributed daemon, with its expected hitting times as detail. *)

val theorem6 : unit -> result
(** The alternating two-token execution on the 6-ring is strongly fair,
    never converges, and is not Gouda-fair. *)

val theorem7 : unit -> result
(** weak-stabilization = probability-1 convergence under randomized
    schedulers, across bundled protocols (positive and negative
    instances). *)

val theorems8_9 : unit -> result
(** Transformed Algorithms 1/2/3 converge with probability 1 under the
    synchronous and distributed randomized schedulers, with closure. *)

val all : (string * (unit -> result)) list
(** T1, T2, T3, T4, T5, T6, T7, T8/T9 in order, each id paired with the
    check that proves it (with default arguments), so one theorem can
    be run without computing the others. *)
