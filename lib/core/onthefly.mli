(** On-the-fly reachability analysis for large state spaces.

    The explicit checker ({!Checker}) enumerates the whole
    configuration space, which caps it at a few million configurations.
    When the question is about specific initial configurations — "can
    the system recover from THIS corrupted state?", the k-stabilization
    style of question — only the forward-reachable sub-system matters,
    and it is often orders of magnitude smaller. This module explores
    it with a hash table, never materializing the full space.

    Soundness: when exploration completes within the state budget, the
    reachable sub-system is forward-closed, so possible- and
    certain-convergence verdicts relative to the given initial
    configurations are exact. When the budget is hit the answer is
    [Unknown]. *)

type stats = {
  explored : int;  (** configurations reached *)
  edges : int;  (** transitions expanded *)
  complete : bool;  (** false iff the state budget stopped exploration *)
}

type verdict =
  | Converges  (** the property holds on the reachable sub-system *)
  | Counterexample of int  (** a configuration code witnessing failure *)
  | Unknown  (** exploration hit the budget *)

type analysis = {
  possible : verdict;
      (** weak stabilization relative to [inits]: from every reachable
          configuration some execution reaches the legitimate set *)
  certain : verdict;
      (** certain convergence relative to [inits]: no reachable cycle
          outside [L], no reachable illegitimate terminal configuration *)
  stats : stats;
}

val analyze :
  ?max_states:int ->
  'a Statespace.t ->
  Statespace.sched_class ->
  'a Spec.t ->
  inits:'a array list ->
  analysis
(** Explore the sub-system reachable from [inits] once (at most
    [max_states] configurations, default [1_000_000], the distinct
    [inits] included: more distinct inits than that leave the
    exploration incomplete) and decide both verdicts on it. The
    traversals run in {!Digraph}. *)
