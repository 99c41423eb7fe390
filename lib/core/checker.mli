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
    packed in compressed-sparse-row form: one flat int32 row array
    ({!Digraph.edges}, outside the OCaml heap), an int offset array and
    one enabled mask per configuration, so the graph passes below run
    over contiguous memory. The activated subset of each group is
    derived from the enabled mask ({!Statespace.next_group}). A
    deterministic protocol's graph stores nothing per group: each
    group is one transition of weight 1.0, and under the distributed
    class on a full space the rows hold each configuration's [k]
    per-process deltas in place of its [2^k - 1] successors. A
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
(** The number of transitions, one per (configuration, activated
    subset, outcome) triple: in the {!Subsets} layout the [2^k - 1]
    subset sums of each configuration, not the [k] deltas stored. *)

val graph_bytes : graph -> int
(** Test seam: the graph footprint test bounds the expansion's memory
    through it. The bytes the graph holds: its words on the OCaml heap plus the
    payload of its one int32 row array (targets, or deltas in the
    {!Subsets} layout). The graph keeps no reverse, so the figure is
    final once {!expand} returns. [Obj.reachable_words] alone sees only
    the row array's header. *)

val successors : graph -> Digraph.t
(** The successor relation as a {!Digraph} graph over configuration
    codes: the packed arrays themselves, not a copy; walk it with the
    kernel's passes, {!Digraph.iter_succ} or {!Digraph.exists_succ}.
    The successors of [c] come in transition order, one per
    (activated subset, outcome) pair, so a target may repeat. Its rows
    are {!Digraph.Subsets} in the {!Subsets} layout and
    {!Digraph.Edges} otherwise. *)

type groups =
  | Singleton
      (** a {!Protocol.deterministic} protocol under the central or
          synchronous class, or on a quotient: group [i] is edge [i] of
          the {!successors} rows, with weight 1.0 *)
  | Subsets
      (** a {!Protocol.deterministic} protocol on a full space under the
          distributed class: the {!successors} rows are
          {!Digraph.Subsets}, [k] deltas per configuration with [k]
          enabled processes, and group [i] is its [i]-th subset sum,
          with weight 1.0 *)
  | Outcomes of {
      grp_off : int array;  (** groups of [c]: [grp_off.(c) .. grp_off.(c+1) - 1] *)
      succ_off : int array;
          (** successors of group [grp]: [succ_off.(grp) .. succ_off.(grp+1) - 1]
              of the {!successors} edges *)
      succ_w : float array;  (** outcome probability of each successor entry *)
    }  (** the layout of a randomized protocol *)
(** The group level of the packing, chosen by properties of the input
    alone: {!Protocol.deterministic}, the class, and whether the space
    is a quotient (whose canonicalized targets are not sums of
    deltas). *)

type packing = {
  enabled : int array;
      (** Enabled(c) as a process bitmask; the groups of [c] activate
          the subsets {!Statespace.next_group} derives from it, in
          order *)
  groups : groups;
}
(** The group level behind {!successors}, whose offsets and row array
    hold the rest of the packing. *)

val packing : graph -> packing
(** Test seam: the layout tests audit the packing through it; it must
    not depend on the pool width. The packed arrays themselves, not
    copies: treat them as read-only. *)

val iter_groups : graph -> int -> group:(int -> unit) -> succ:(int -> float -> unit) -> unit
(** Test seam: the expansion tests compare a configuration's packed
    groups, activated subsets included, against
    {!Statespace.expander}'s; callers read rows through
    {!row_weights}. [iter_groups g c ~group ~succ] replays the
    transitions of [c] as {!Statespace.expander} emitted them: for
    each group, in transition order, [group active] with its activated
    subset as a process bitmask, then [succ target weight] for each of
    its outcomes, in outcome order. The same in every {!groups}
    layout. *)

val weighted_row : graph -> int -> (int * float) list
(** [weighted_row g c] reads off the Markov row of [c] under the
    uniform randomized daemon of the graph's class: each outcome's
    probability times [1/#groups]. Entries are unmerged, in transition
    order; terminal configurations give []. Consumed by the
    lumpability audit of {!Markov.of_space}. *)

val row_weights : graph -> int -> float array -> unit
(** [row_weights g c ws] writes the weights of [weighted_row g c] into
    [ws.(0)], [ws.(1)], ..., one per transition of [c] in transition
    order (the order of [Digraph.iter_succ] on {!successors}), straight
    off the packed arrays and without boxing a float. This is the
    weight reader of a {!Markov.of_space} chain, which merges each
    [Edges] row from it on demand. *)

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
    violation found, in code order and then in {!iter_groups} order.
    Also fails if [L] is empty, which Definitions 1-3 exclude. One
    violation loop reads one of two step enumerators: the graph's
    groups on a full space, and on a quotient each representative's
    *base* steps from {!Statespace.expander}, so [step_ok] sees actual
    successor configurations, never canonicalized ones. *)

val possible_convergence :
  'a Statespace.t -> graph -> legitimate:bool array -> (unit, int) result
(** [Error c] gives a configuration from which no execution reaches
    [L], over all positive-probability edges: the least such code.
    Decided forward by {!Digraph.first_unreaching}, with no reverse
    graph and no per-configuration array: a
    strongly connected component reaches [L] iff a member is in [L]
    or has an edge into a component that does, so [L] is reachable
    from everywhere iff every bottom component meets it (Thm 7).
    The pass visits only the configurations outside [L], and the
    kernel remembers its blocks for the graph and [L], so the fairness
    checks and a Markov chain of the same graph read them without a
    second traversal; {!analyze} skips it when certain convergence
    holds, which implies possible convergence. *)

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
(** Test seam: tests inject arbitrary legitimate sets through it;
    callers reach the same analysis through {!analyze}.
    [Some states] is a witness set outside [L] supporting an infinite
    strongly-fair execution that never reaches [L] (every process
    enabled somewhere in the set fires inside the set). [None] means
    every strongly-fair execution converges — together with closure
    this is deterministic self-stabilization under a strongly fair
    daemon of the class. Terminal dead-ends are NOT reported here; use
    {!certain_convergence}.

    Per-process fairness is not invariant under the symmetry group, so
    on a quotient space the Streett analysis runs against the BASE
    space (expanded through the shared cache, with the legitimate set
    pulled back along the orbit map) and the witness contains
    base-space codes, not representative indexes. *)

val weakly_fair_divergence :
  'a Statespace.t -> graph -> legitimate:bool array -> int list option
(** Test seam: as {!strongly_fair_divergence}. Same for weak
    fairness: the witness set has, for every process, either a
    configuration where it is disabled or an internal transition
    firing it. On a quotient the analysis likewise runs against the
    base space. *)

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
(** The closure/possible/certain verdicts are computed eagerly, certain
    convergence first: when it holds (no terminal configuration and no
    cycle outside [L]) every configuration reaches [L], so [possible]
    is [Ok ()] and the reachability pass of {!possible_convergence}
    does not run. Otherwise [possible] is {!possible_convergence}'s
    answer, witness included. The two
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
(** Test seam: the fault tests measure injected corruption with it and
    check {!k_faulty_set} against it. Number of processes whose
    states differ — the fault measure of k-stabilization (how many
    process memories changed). *)

val k_faulty_set : 'a Statespace.t -> legitimate:bool array -> k:int -> bool array
(** Configurations at Hamming distance at most [k] from some legitimate
    configuration: the admissible initial configurations after at most
    [k] memory-corruption faults. *)

val k_stabilizing :
  'a Statespace.t -> graph -> legitimate:bool array -> k:int -> (unit, divergence) result
(** k-stabilization: from every configuration that [k] faults can
    produce, every execution converges to [L]. The faulty set is
    generally not closed, so this is {!certain_convergence} with [L]
    widened by every configuration the faulty set cannot reach: those
    cannot occur, so only dead ends and cycles reachable from a faulty
    configuration count. *)

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
    distance, computed by backward BFS: each call builds the
    predecessor relation afresh and drops it afterwards, so a caller
    needing the distances twice keeps the array. *)

val worst_case_steps : 'a Statespace.t -> graph -> legitimate:bool array -> int array option
(** Longest execution prefix that stays outside [L], per configuration
    — finite only when the system certainly converges (the [C \ L]
    subgraph is a DAG with no terminal configuration); [None]
    otherwise. For a self-stabilizing protocol this is its exact
    stabilization time under the worst daemon of the class. One scan
    for terminals and {!Digraph.heights_outside} decide certain
    convergence and fill the values together, in O(n) ints of scratch
    beyond the graph. The depth-first search behind it runs only when
    the kernel's memo lacks the answer: after {!analyze} or
    {!certain_convergence} on the same graph and an equal [legitimate],
    the call scans for terminals and copies the remembered heights. *)

val convergence_radius_histogram :
  'a Statespace.t -> graph -> legitimate:bool array -> (int * int) list
(** Histogram of {!best_case_steps}: pairs (distance, number of
    configurations), sorted by distance. Unreachable configurations
    are reported under distance [-1]. *)

(** {1 Synchronous analyses}

    For a deterministic protocol the synchronous step is a (partial)
    function on configurations. All three analyses read it from
    {!Statespace.expander} under the synchronous class, and all three
    raise [Invalid_argument] naming themselves on a randomized protocol
    or on a step with several outcomes. *)

val synchronous_lasso : 'a Statespace.t -> init:int -> int list * int list
(** The unique synchronous execution of a deterministic protocol from
    [init], as a lasso [(prefix, cycle)] of configuration codes. An
    execution reaching a terminal configuration has an empty cycle and
    the terminal code ends the prefix. *)

val sync_orbit_census : 'a Statespace.t -> (int * int) list
(** Every configuration's synchronous execution falls into a terminal
    configuration or a unique limit cycle.
    [sync_orbit_census space] returns pairs (cycle length, number of
    configurations whose synchronous execution ends in a cycle of that
    length), sorted; terminal configurations count as cycles of length
    0. This measures how prevalent Figure-3-style synchronous
    oscillations are across the whole space. One walk per unvisited
    configuration, with a position stamp per configuration: O(n) time
    and O(n) ints beyond the successor array. *)

val sync_closed_set :
  'a Statespace.t -> ('a array -> bool) -> (int * int) option
(** [sync_closed_set space member] checks that the configuration set
    [member] is closed under synchronous steps — the induction behind
    the Theorem 3 impossibility argument. Returns the least member
    configuration whose synchronous successor leaves the set, as
    [(config, successor)], or [None] if closed. *)
