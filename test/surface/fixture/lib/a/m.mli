(** Fixture for surface.sh: one value per way a caller can name it. *)

val length : int list -> int
(** Named as [M.length] only by a test. Elsewhere [Array.length] and
    [List.length] use the word, which fooled a whole-word match. *)

val aliased : unit -> int
(** Named through [module Alias = Fixlib.M]. *)

val opened : unit -> int
(** Named inside a local open [M.( ... )]. *)

val bare : unit -> int
(** Named as a bare word in a file that opens [Fixlib.M]. *)

val prefixed : unit -> int
(** Named through the library prefix, [Fixlib.M.prefixed]. *)

module Sub : sig
  val nested : unit -> int
  (** Named as [M.Sub.nested]. *)
end

val internal : unit -> int
(** Called only by [m.ml] itself. *)

val seam_used : unit -> int
(** Test seam: a test names it. *)

val seam_unused : unit -> int
(** Test seam: no test names it. *)

type tally = { count : int }
(** A record whose field library code reads and writes qualified. *)

val count : tally -> int
(** Named as [M.count] only by a test. Library code projects the field
    of the same name and builds the record with a qualified label, which
    a check that keyed fields like values took for uses. *)
