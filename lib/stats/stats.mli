(** Summary statistics for the Monte-Carlo stabilization-time
    experiments (E1-E4 in DESIGN.md). *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  stderr : float;  (** standard error of the mean *)
  min : float;
  max : float;
  ci95_low : float;  (** normal-approximation 95% confidence bounds *)
  ci95_high : float;
}

val summarize : float array -> summary
(** Requires a non-empty array. For a single sample the spread fields
    are 0. *)

val summarize_ints : int array -> summary

val mean : float array -> float
(** Test seam: the statistics tests check the mean and its empty-array
    error on their own; the library reaches it through {!summarize}. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [0 <= q <= 1]; linear interpolation between
    order statistics. Does not modify the input. *)

val pp_summary : Format.formatter -> summary -> unit
(** One-line [mean +/- stderr [min, max] (n)] rendering. *)
