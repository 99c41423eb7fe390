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
val variance : float array -> float
(** Sample variance; 0 for fewer than two samples. *)

val quantile : float array -> float -> float
(** [quantile xs q] with [0 <= q <= 1]; linear interpolation between
    order statistics. Does not modify the input. *)

val median : float array -> float

type histogram = { bounds : float array; counts : int array }
(** [counts.(i)] falls in [[bounds.(i), bounds.(i+1))]; the last bin is
    closed on the right. *)

val histogram : bins:int -> float array -> histogram
(** Equal-width bins over the data range. Requires [bins >= 1] and a
    non-empty array. *)

val pp_summary : Format.formatter -> summary -> unit
(** One-line [mean +/- stderr [min, max] (n)] rendering. *)

(** {1 Comparing means}

    A noise-band test: two measured means are
    distinguishable only when they differ by more than the pooled 95%
    half-width of their difference. *)

val t95 : int -> float
(** Two-sided 97.5% Student-t critical value for the given degrees of
    freedom (step table, errs conservative between tabulated points;
    converges to 1.96 for large df; 0 for df <= 0). *)

val ci95_halfwidth : summary -> float
(** Half-width of the mean's 95% confidence interval,
    [t95 (count - 1) * stderr] — small-sample corrected, unlike the
    normal-approximation [ci95_low]/[ci95_high] fields. *)

val pooled_halfwidth : float -> float -> float
(** [pooled_halfwidth a b = sqrt (a² + b²)] — the 95% half-width of a
    difference of two independent means whose individual half-widths
    are [a] and [b]. *)

val means_differ :
  mean_a:float -> half_a:float -> mean_b:float -> half_b:float -> bool
(** True iff [|mean_b - mean_a|] exceeds the pooled noise band — the
    difference is statistically significant at ~95%. With both
    half-widths 0 (single-point data) any nonzero difference counts. *)
