(** Static checks for GCP programs: every identifier resolves, every
    expression is well-typed (int vs bool), guards and legitimacy
    predicates are boolean, assignments target declared variables of
    the right type (each at most once per action), and domain bounds
    only mention constants and [degree]. *)

type ty = Tint | Tbool

exception Error of string * Ast.position

val check : Ast.program -> unit
(** Raises [Error] on the first problem found. *)

