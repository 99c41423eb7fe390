(** Human-readable rendering of executions, in the style of the paper's
    Figures 1 and 2: one line per configuration, annotated with the
    processes that fire and the action labels. *)

val pp : 'a Protocol.t -> Format.formatter -> 'a Engine.trace -> unit
(** Full trace: initial configuration, then one line per step showing
    the fired (process, action) pairs and the resulting
    configuration. *)
