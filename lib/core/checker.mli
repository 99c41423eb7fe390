(** Explicit-state verification of the paper's stabilization notions.

    Given a protocol's full configuration space (the paper assumes
    [I = C]) and a scheduler class, these checks decide, exactly:

    - {b strong closure} (Definitions 1-3, condition i): no step leaves
      the legitimate set [L], and steps inside [L] satisfy the spec's
      per-step behaviour;
    - {b possible convergence} (Definition 3, condition ii): from every
      configuration some execution reaches [L] — weak stabilization;
    - {b certain convergence} (Definition 1, condition ii): every
      execution reaches [L] — deterministic self-stabilization under
      an unconstrained daemon of the class;
    - {b fair divergence}: whether a strongly-fair (resp. weakly-fair)
      infinite execution avoiding [L] exists, via Streett-style SCC
      refinement — this separates weak stabilization from
      self-stabilization under the fairness assumptions of Section 3;
    - {b synchronous analyses} used by Theorem 1, Theorem 3 and
      Figure 3: the unique synchronous execution of a deterministic
      protocol is a lasso; we compute it, and check closure of
      arbitrary configuration sets under synchronous steps. *)

type graph
(** Expanded transition relation of a space under a scheduler class,
    packed in compressed-sparse-row form: a flat int32 successor array
    ({!Digraph.edges}, outside the OCaml heap), an int offset array and
    one enabled mask per configuration, so the graph passes below run
    over contiguous memory. The activated subset of each group is
    derived from the enabled mask ({!Statespace.next_group}). A deterministic protocol's graph stores
    nothing per group: each group is one edge of weight 1.0. A
    randomized protocol's graph also stores group and outcome offsets
    and every edge's outcome probability (see {!groups}). *)

val expand : 'a Statespace.t -> Statespace.sched_class -> graph
(** Materialize all transitions. Cost is proportional to the number of
    (configuration, allowed subset, outcome) triples; a count pass and
    a fill pass over {!Statespace.expander} are sharded across OCaml 5
    domains, and the fill writes every range at its global offsets, so
    the packing is the same at every pool width. Raises
    [Invalid_argument] when the fill pass disagrees with the count
    pass, in counts or in an activated subset (an impure guard). Results
    are cached per ({!Statespace.uid}, class) in a small bounded
    store, so the theorem checks, the portfolio, the quantitative
    sweeps and {!Markov.of_space} share one expansion per space
    instead of re-deriving it. *)

val graph_edge_count : graph -> int

val graph_bytes : graph -> int
(** The bytes the graph holds: its words on the OCaml heap plus the
    payloads of its edge arrays, the forward one and, once built, the
    memoized reverse. [Obj.reachable_words] alone sees only the edge
    arrays' headers. *)

val successors : graph -> Digraph.t
(** The successor relation as a {!Digraph} CSR over configuration
    codes: the packed arrays themselves, not a copy; read a target with
    {!Digraph.target}. The successors of [c] come in transition order,
    one entry per (activated subset, outcome) pair, so a target may
    repeat. *)

type groups =
  | Singleton
      (** the layout of a {!Protocol.deterministic} protocol: group [i]
          is edge [i] of the {!successors} [dst] array, with weight
          1.0 *)
  | Outcomes of {
      grp_off : int array;  (** groups of [c]: [grp_off.(c) .. grp_off.(c+1) - 1] *)
      succ_off : int array;
          (** successors of group [grp]: [succ_off.(grp) .. succ_off.(grp+1) - 1]
              of the {!successors} [dst] array *)
      succ_w : float array;  (** outcome probability of each successor entry *)
    }  (** the layout of a randomized protocol *)
(** The group level of the packing, chosen by
    {!Protocol.deterministic} alone. *)

type packing = {
  enabled : int array;
      (** Enabled(c) as a process bitmask; the groups of [c] activate
          the subsets {!Statespace.next_group} derives from it, in
          order *)
  groups : groups;
}
(** The two-level packing behind {!successors}. *)

val packing : graph -> packing
(** The packed arrays themselves, not copies: treat them as read-only.
    For audits of the layout, which must not depend on the pool
    width. *)

val iter_groups : graph -> int -> (int -> int -> int -> unit) -> unit
(** [iter_groups g c f] calls [f active lo hi] once per transition
    group of [c], in transition order: [active] is the group's
    activated subset as a process bitmask, and [lo .. hi - 1] its
    successor range in the {!successors} [dst] array. The same in
    both {!groups} layouts. *)

val weight : graph -> int -> float
(** [weight g i] is the outcome probability of entry [i] of the
    {!successors} [dst] array: 1.0 in the [Singleton] layout. *)

val weighted_row : graph -> int -> (int * float) list
(** [weighted_row g c] reads off the Markov row of [c] under the
    uniform randomized daemon of the graph's class: each outcome's
    probability times [1/#groups]. Entries are unmerged, in transition
    order; terminal configurations give []. Consumed by the
    lumpability audit of {!Markov.of_space}. *)

val iter_weighted_row : graph -> int -> (int -> float -> unit) -> unit
(** [iter_weighted_row g c f] is [weighted_row] without the list:
    [f target weight] is called once per packed transition of [c], in
    transition order, straight off the packed arrays. This is the
    allocation-free handoff {!Markov.of_space} packs its CSR rows
    from. *)

type closure_violation =
  | Empty_legitimate_set
      (** Definitions 1-3 require a non-empty [L] *)
  | Escape of { config : int; active : int list; successor : int }
      (** a step from [L] leaves [L] *)
  | Step_spec of { config : int; successor : int }
      (** a step inside [L] violates the spec's [step_ok] *)

val check_closure :
  'a Statespace.t -> graph -> 'a Spec.t -> (unit, closure_violation) result
(** Strong closure of the spec's legitimate set. Fails with the first
    violation found. Also fails if [L] is empty, which Definitions 1-3
    exclude. On a quotient space the check walks each representative's
    *base* transitions so [step_ok] sees actual successor
    configurations, never canonicalized ones. *)

val possible_convergence :
  'a Statespace.t -> graph -> legitimate:bool array -> (unit, int) result
(** [Error c] gives a configuration from which no execution reaches
    [L] (backward reachability from [L] over all positive-probability
    edges). *)

type divergence =
  | Cycle of int list  (** configuration codes of a cycle outside [L] *)
  | Dead_end of int  (** terminal configuration outside [L] *)

val certain_convergence :
  'a Statespace.t -> graph -> legitimate:bool array -> (unit, divergence) result
(** Every execution (no fairness assumed) reaches [L]: the subgraph
    induced by [C \ L] must be acyclic and contain no terminal
    configuration. *)

val strongly_fair_divergence :
  'a Statespace.t -> graph -> legitimate:bool array -> int list option
(** [Some states] is a witness set outside [L] supporting an infinite
    strongly-fair execution that never reaches [L] (every process
    enabled somewhere in the set fires inside the set). [None] means
    every strongly-fair execution converges — together with closure
    this is deterministic self-stabilization under a strongly fair
    daemon of the class. Terminal dead-ends are NOT reported here; use
    {!certain_convergence} or {!illegitimate_terminals}.

    Per-process fairness is not invariant under the symmetry group, so
    on a quotient space the Streett analysis runs against the BASE
    space (expanded through the shared cache, with the legitimate set
    pulled back along the orbit map) and the witness contains
    base-space codes, not representative indexes. *)

val weakly_fair_divergence :
  'a Statespace.t -> graph -> legitimate:bool array -> int list option
(** Same for weak fairness: the witness set has, for every process,
    either a configuration where it is disabled or an internal
    transition firing it. On a quotient the analysis likewise runs
    against the base space. *)

val illegitimate_terminals :
  'a Statespace.t -> legitimate:bool array -> int list
(** Terminal configurations outside [L]; any of these is a maximal
    finite execution that never converges, whatever the fairness. *)

(** {1 Verdicts} *)

type verdict = {
  closure : (unit, closure_violation) result;
  possible : (unit, int) result;
  certain : (unit, divergence) result;
  strongly_fair_diverges : int list option Lazy.t;
  weakly_fair_diverges : int list option Lazy.t;
  dead_ends : int list;
}

val analyze : 'a Statespace.t -> Statespace.sched_class -> 'a Spec.t -> verdict
(** The closure/possible/certain verdicts are computed eagerly; the two
    fairness witnesses are deferred until forced (along with the SCC
    decomposition of [C \ L] they share), so callers that only need
    weak/self verdicts never pay for the Streett analysis. The
    {!self_stabilizing_strongly_fair} / {!self_stabilizing_weakly_fair}
    accessors force them. On a quotient space the deferred fairness
    fields are evaluated against the base space (see
    {!strongly_fair_divergence}): the quotient accelerates every eager
    verdict, while forcing a fairness field costs the same Streett
    analysis the full space would. *)

val weak_stabilizing : verdict -> bool
(** Closure holds and possible convergence holds (Definition 3). *)

val self_stabilizing : verdict -> bool
(** Closure and certain convergence (Definition 1, unfair daemon). *)

val self_stabilizing_strongly_fair : verdict -> bool
(** Closure, no dead ends, and no strongly-fair divergence. *)

val self_stabilizing_weakly_fair : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 The rest of the Section 1 taxonomy}

    The paper's introduction situates weak stabilization among other
    weakenings of self-stabilization: pseudo-stabilization (Burns,
    Gouda, Miller) and k-stabilization (Beauquier, Genolini, Kutten).
    Both are decidable on the explicit state space. *)

val pseudo_stabilizing :
  'a Statespace.t -> graph -> legitimate:bool array -> (unit, divergence) result
(** Pseudo-stabilization: {e every} execution has a suffix inside [L]
    (no bound on when the suffix starts). For a finite system this
    holds iff no terminal configuration lies outside [L] and every
    strongly connected component that can sustain an infinite execution
    is entirely inside [L]. Self-stabilization implies it; the converse
    fails whenever [L] is reachable from everywhere but escapable in
    bounded prefixes. *)

val hamming : 'a Statespace.t -> 'a array -> 'a array -> int
(** Number of processes whose states differ — the fault measure of
    k-stabilization (how many process memories changed). *)

val k_faulty_set : 'a Statespace.t -> legitimate:bool array -> k:int -> bool array
(** Configurations at Hamming distance at most [k] from some legitimate
    configuration: the admissible initial configurations after at most
    [k] memory-corruption faults. *)

val k_stabilizing :
  'a Statespace.t -> graph -> legitimate:bool array -> k:int -> (unit, divergence) result
(** k-stabilization: from every configuration that [k] faults can
    produce, every execution converges to [L]. Note the faulty set is
    generally not closed, so the check runs certain convergence on the
    sub-system reachable from the faulty set. *)

(** {1 Convergence-time metrics}

    For a weak-stabilizing system the adversarial convergence time is
    unbounded (that is the point of Theorem 2), so the meaningful
    metrics are the {e optimal-daemon} time — how fast a friendly
    scheduler can converge from each configuration — and, for systems
    that do certainly converge, the {e adversarial} worst case. *)

val best_case_steps : 'a Statespace.t -> graph -> legitimate:bool array -> int array
(** [best_case_steps space g ~legitimate] gives, per configuration, the
    length of the shortest execution reaching [L] (0 inside [L],
    [max_int] if unreachable — the system is then not
    weak-stabilizing). This is the paper's possible-convergence
    distance, computed by backward BFS. *)

val worst_case_steps : 'a Statespace.t -> graph -> legitimate:bool array -> int array option
(** Longest execution prefix that stays outside [L], per configuration
    — finite only when the system certainly converges (the [C \ L]
    subgraph is a DAG with no terminal configuration); [None]
    otherwise. For a self-stabilizing protocol this is its exact
    stabilization time under the worst daemon of the class. One scan
    for terminals and one depth-first search ({!Digraph.heights_outside})
    decide certain convergence and fill the values together, in O(n)
    ints of scratch beyond the graph. *)

val convergence_radius_histogram :
  'a Statespace.t -> graph -> legitimate:bool array -> (int * int) list
(** Histogram of {!best_case_steps}: pairs (distance, number of
    configurations), sorted by distance. Unreachable configurations
    are reported under distance [-1]. *)

(** {1 Synchronous analyses} *)

val synchronous_lasso : 'a Statespace.t -> init:int -> int list * int list
(** The unique synchronous execution of a deterministic protocol from
    [init], as a lasso [(prefix, cycle)] of configuration codes. An
    execution reaching a terminal configuration has an empty cycle and
    the terminal code ends the prefix. Raises [Invalid_argument] on a
    randomized protocol. *)

val sync_orbit_census : 'a Statespace.t -> (int * int) list
(** For a deterministic protocol the synchronous step is a (partial)
    function on configurations, so every configuration falls into a
    terminal configuration or a unique limit cycle.
    [sync_orbit_census space] returns pairs (cycle length, number of
    configurations whose synchronous execution ends in a cycle of that
    length), sorted; terminal configurations count as cycles of length
    0. This measures how prevalent Figure-3-style synchronous
    oscillations are across the whole space. Raises [Invalid_argument]
    on randomized protocols. *)

val sync_closed_set :
  'a Statespace.t -> ('a array -> bool) -> (int * int) option
(** [sync_closed_set space member] checks that the configuration set
    [member] is closed under synchronous steps — the induction behind
    the Theorem 3 impossibility argument. Returns a counter-example
    [(config, successor)] crossing the boundary, or [None] if closed. *)
