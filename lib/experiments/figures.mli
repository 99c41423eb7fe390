(** Reproductions of the paper's three figures (example executions).

    Each function both computes the underlying object — so tests can
    assert on it — and renders a human-readable account. *)

(** {1 Figure 1: token circulation from a legitimate configuration} *)

type fig1 = {
  ring_size : int;
  modulus : int;  (** the paper's m_N *)
  holders : int list;  (** token holder after each step, starting config first *)
  rendering : string;
}

val fig1 : ?steps:int -> unit -> fig1
(** Replays the paper's example (N = 6, m = 4): one token walking the
    ring. [steps] defaults to 12 (two revolutions). *)

(** {1 Figure 2: a converging execution of Algorithm 2} *)

type fig2 = {
  steps : int;
  final_leader : int;
  final_is_lc : bool;
  rendering : string;
}

val fig2 : unit -> fig2
(** Replays the five-step scripted convergence on the 8-process tree
    (see {!Stabalgo.Leader_tree.fig2_script}). *)

(** {1 Figure 3: synchronous divergence of Algorithm 2} *)

type fig3 = {
  prefix_length : int;
  cycle_length : int;
  ever_legitimate : bool;
  rendering : string;
}

val fig3 : unit -> fig3
(** Computes the synchronous lasso from the mutual-pair configuration
    on the 4-chain: period 2, never legitimate. *)
