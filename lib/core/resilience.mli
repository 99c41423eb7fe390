(** Exact recovery-radius analysis on the packed transition graph.

    k-stabilization (Beauquier-Genolini-Kutten, recalled in the paper's
    Section 1) asks whether the system recovers from every
    configuration at Hamming distance at most [k] from the legitimate
    set. This module turns the question quantitative and exact: for
    each fault budget [k] it reports whether recovery is {e guaranteed}
    (every execution of the scheduler class reconverges), the exact
    adversarial worst-case step count when it is, whether recovery has
    {e probability 1} under the class's uniform randomized daemon
    (Definition 6), and the exact expected recovery time. The two
    resulting radii separate cleanly on the paper's flagship: Dijkstra's
    token ring with [n = 7, m = 2] is weak- but not self-stabilizing
    under the central daemon, so its adversarial radius is 0 while its
    probabilistic radius is the full ring (Theorem 7 in action). *)

type metric = {
  k : int;  (** fault budget: up to [k] corrupted process memories *)
  faulty_configs : int;  (** configurations within Hamming [k] of [L] *)
  corrupted_configs : int;  (** of which outside [L] (recovery needed) *)
  guaranteed : bool;
      (** every execution from every faulty configuration reconverges *)
  worst_case : int option;
      (** exact adversarial recovery steps (max over faulty
          configurations of the longest execution outside [L]);
          [None] iff not [guaranteed] — the worst case is unbounded *)
  prob_one : bool;
      (** the uniform randomized daemon recovers with probability 1
          from every faulty configuration *)
  expected_mean : float option;
      (** mean expected recovery steps over the corrupted (outside-[L])
          faulty configurations, under the randomized daemon; [None]
          when the chain is not probabilistically stabilizing from all
          of [C] (I = C, so expected times are then ill-defined
          somewhere) *)
  expected_max : float option;  (** worst faulty configuration *)
}

type radius = {
  max_k : int;  (** largest budget examined *)
  adversarial : int;
      (** largest [k <= max_k] with guaranteed recovery; [-1] if none
          (an empty or non-closed [L] can fail even [k = 0]) *)
  probabilistic : int;  (** largest [k <= max_k] with prob-1 recovery *)
}

val analyze :
  'a Statespace.t -> Statespace.sched_class -> 'a Spec.t -> ks:int list -> metric list
(** One metric per requested budget (deduplicated, ascending). The
    packed graph, the induced Markov chain and its hitting times are
    computed once and shared across budgets. *)

val radius_of : metric list -> radius
(** Both radii from a metric list (the properties are downward closed
    in [k], so the radius is the last budget before the first
    failure). Raises [Invalid_argument] on an empty list. *)

val radius :
  'a Statespace.t -> Statespace.sched_class -> 'a Spec.t -> max_k:int -> radius
(** [radius_of (analyze ~ks:[0; ...; max_k])]. *)
