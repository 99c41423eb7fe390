(** Guarded-command protocols over anonymous networks.

    This is the computational model of the paper's Section 2: each
    process runs a finite set of guarded actions
    [label :: guard -> statement]. Guards read the process's own state
    and its neighbors' states; statements update the process's own
    state. A statement may assign P-variables randomly, which we model
    by letting every statement return a finite probability distribution
    over successor local states — deterministic statements are singleton
    distributions.

    A [Protocol.t] value is an algorithm *instantiated on a topology*:
    the graph is captured when the protocol is built, so guards receive
    only a configuration and a process id. *)

type 'a dist = ('a * float) list
(** A finite distribution: non-empty, weights positive, summing to 1
    (within numerical tolerance). *)

type 'a action = {
  label : string;  (** the paper's action label, e.g. ["A1"] *)
  guard : 'a array -> int -> bool;
      (** [guard cfg p]: may read only [p] and its neighbors. *)
  result : 'a array -> int -> 'a dist;
      (** Successor local states of [p] with probabilities; called only
          when the guard holds. *)
}

(** {b Purity.} Guards and statements are functions of the
    configuration they receive. They must not mutate that array nor
    retain it beyond the call: the
    explicit-state expansion ({!Statespace.expander}) decodes every
    configuration into one buffer per range and overwrites it for the
    next configuration, and it may evaluate the same configuration
    again in a later pass. The local states inside the array are shared
    domain values and must not be mutated either. *)

type 'a t = {
  name : string;
  graph : Stabgraph.Graph.t;
  domain : int -> 'a list;
      (** Finite local state domain of each process; used by the
          explicit-state checker and for sampling random
          configurations. Must list every state reachable by actions. *)
  actions : 'a action list;
      (** Shared code, per the anonymous-network model: the same action
          list runs at every process. Guards of distinct actions must be
          mutually exclusive at any given process and configuration (the
          daemon selects processes, not actions); see
          {!exclusive_guards_violation}. *)
  equal : 'a -> 'a -> bool;
  pp : Format.formatter -> 'a -> unit;
  randomized : bool;
      (** [true] iff some statement assigns a P-variable (returns a
          non-singleton distribution). *)
}

val deterministic : 'a t -> bool
(** [not t.randomized] — the paper's deterministic-system notion. *)

(** {1 Enabledness (paper Section 2)} *)

val enabled_action : 'a t -> 'a array -> int -> 'a action option
(** The first action of [t.actions] whose guard holds at [p], if any. *)

val is_enabled : 'a t -> 'a array -> int -> bool

val enabled_processes : 'a t -> 'a array -> int list
(** Sorted list of enabled process ids — the paper's [Enabled(gamma)]. *)

val is_terminal : 'a t -> 'a array -> bool
(** No process is enabled. *)

(** {1 Steps} *)

val step_outcomes : 'a t -> 'a array -> int list -> 'a array dist
(** [step_outcomes t cfg active] is the distribution over successor
    configurations when exactly the processes of [active] execute their
    enabled action, all reading [cfg] (atomic composite step). Processes
    of [active] that are not enabled are skipped. Outcomes differing
    only in probability are merged. *)

val step_sample : Stabrng.Rng.t -> 'a t -> 'a array -> int list -> 'a array
(** Sample one successor configuration from {!step_outcomes} without
    materializing the product distribution. *)

val random_config : Stabrng.Rng.t -> 'a t -> 'a array
(** Uniform configuration: each process state drawn uniformly from its
    domain. This is how experiments model the arbitrary initial
    configuration of Definitions 1-3. *)

val equal_config : 'a t -> 'a array -> 'a array -> bool

val pp_config : 'a t -> Format.formatter -> 'a array -> unit
(** Renders as [[s0 s1 ... s(n-1)]] using [t.pp]. *)

(** {1 Validation} *)

val exclusive_guards_violation : 'a t -> 'a array -> int option
(** Test seam: the algorithm tests check every bundled protocol's
    guards with it over whole state spaces. [Some p] if two distinct
    actions are enabled at [p] in the given configuration — a
    modelling error in the protocol definition. *)
