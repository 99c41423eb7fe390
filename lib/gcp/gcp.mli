(** Loading and instantiating GCP programs.

    The GCP language lets users define guarded-command protocols in
    plain text and run them through the whole laboratory — simulation,
    exhaustive checking, Markov analysis, the Section 4 transformer —
    without writing OCaml. Example ([examples/gcp/mis.gcp]):

    {v
protocol mis
var inS : bool
action enter   :: !inS && forall q (!q.inS) -> inS := true
action retreat :: inS  && exists q (q.inS)  -> inS := false
legitimate terminal
    v}

    A program is instantiated on a topology; the resulting protocol's
    local state is the tuple of declared variables, represented as an
    [int array] (booleans as 0/1). Programs are deterministic; apply
    {!Stabcore.Transformer.randomize} for the probabilistic version. *)

type program
(** A parsed, type-checked program. *)

val load : string -> (program, string) result
(** [load path] reads, parses and type-checks a [.gcp] file. A parse or
    type error's string carries line/column information. *)

val name : program -> string

val instantiate :
  program ->
  Stabgraph.Graph.t ->
  (int array Stabcore.Protocol.t * int array Stabcore.Spec.t, string) result
(** Build the protocol and its specification on a topology. Fails if a
    variable domain is empty on some process (e.g. [0 .. degree - 1] on
    a degree-0 node). Runtime evaluation errors (division by zero,
    neighbor index out of range, assignment outside the domain,
    [first] without a match) raise [Failure] with position information
    when the protocol is later exercised. *)

