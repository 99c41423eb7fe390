(** Minimal JSON values: emission and parsing.

    One tiny module shared by every JSON producer in the tree — the
    JSONL event sink, the Chrome trace exporter, the flight dump and
    the benchmark's result files — so none of them hand-roll comma
    placement or string escaping. The parser reads campaign specs,
    checkpoints, flight dumps and benchmark results, and validates
    line-delimited event logs in tests; it accepts standard JSON
    (RFC 8259) minus nothing of relevance at this scale. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** [minify:true] (default) is single-line; [minify:false] pretty-prints
    with two-space indentation, for committed artifacts that should
    diff well. Non-finite floats render as [null]; finite floats use
    the shortest representation that parses back to the same
    value. *)

val output : out_channel -> t -> unit
(** Compact rendering straight to a channel. *)

val of_string : string -> (t, string) result
(** Parses one JSON document (surrounding whitespace allowed); the
    error string carries a byte offset. Numbers without [.], [e] or [E]
    that fit in an OCaml [int] parse as [Int], everything else as
    [Float]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)
