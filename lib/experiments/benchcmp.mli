(** Bench-record comparison and the perf-regression gate.

    Reads two [BENCH_checker.json]-style documents (schema 3 with
    distribution metrics, or legacy schema 1/2 point estimates), lines
    their artifact entries up by name, and decides — per entry — if
    the candidate regressed relative to the baseline.

    The decision is statistically gated: a slowdown only {e counts}
    when the two means differ by more than the pooled 95% noise band
    of the measurements ({!Stabstats.Stats.means_differ}) {b and} the
    relative change exceeds the caller's [gate_pct] tolerance. Noise
    inside the band never gates, however large the percentage looks;
    significant-but-small drift under the tolerance never gates
    either. *)

type entry = {
  mean_ns : float;
  stddev_ns : float;
  ci95_ns : float;
      (** half-width of the 95% confidence interval; 0 for legacy
          single-point records, which makes the significance test
          degenerate to a plain mean comparison *)
  p50_ns : float;
  p99_ns : float;
  samples : int;
  minor_words_per_run : float;
  major_per_run : float;
}

type doc = {
  schema : int;
  commit : string;
  dirty : bool;
  cores : int option;
      (** [meta.cores] of the recording machine; [None] for records
          written before the field existed *)
  entries : (string * entry) list;  (** in document order *)
}

val of_json : Stabobs.Json.t -> (doc, string) result
(** Accepts schema 3 ([{"ns": {"mean": ...}, "mem": {...}}] entries)
    and schemas 1/2 ([{"ns_per_run": ...}]); entries whose timing is
    null are dropped. *)

val load : string -> (doc, string) result
(** Read and parse a bench JSON file; errors carry the path. *)

(** Per-entry comparison outcome. [Regression] is the only status that
    fails the gate. *)
type status =
  | Regression  (** significant slowdown beyond the gate tolerance *)
  | Slower  (** significant slowdown inside the tolerance *)
  | Faster  (** significant speedup *)
  | Unchanged  (** difference within the pooled noise band *)
  | Added  (** entry only in the candidate *)
  | Removed  (** entry only in the baseline *)

type delta = {
  name : string;
  base : entry option;
  cand : entry option;
  pct : float option;  (** mean change as a percentage of the baseline *)
  noise_pct : float option;
      (** pooled ci95 half-width as a percentage of the baseline — the
          band a change must exceed to be significant *)
  significant : bool;
  status : status;
}

val compare_docs :
  ?noise_floor_ns:float ->
  gate_pct:float ->
  baseline:doc ->
  candidate:doc ->
  unit ->
  delta list
(** One delta per artifact in either document, baseline order first,
    candidate-only entries appended. The significance band of each
    entry is the pooled ci95 half-width or [noise_floor_ns] (default
    5 ns), whichever is larger. Raises [Invalid_argument] unless
    [gate_pct] is finite and non-negative: a NaN or infinite tolerance
    would never gate. *)

val gate_failures : delta list -> delta list
(** The deltas that should fail CI: status {!Regression}. *)

val report : delta list -> Report.t
(** The per-entry delta table ([artifact | base | cand | Δ% | ±noise% |
    mem Δ% | verdict]). *)

val cores_mismatch : baseline:doc -> candidate:doc -> string option
(** A one-line warning when both docs carry [meta.cores] and they
    differ — parallel entries ([expand-ws-*]) are machine-shaped, so a
    cross-core-count compare must be read with care. [None] when the
    counts match or either record predates the field. *)

val markdown : gate_pct:float -> baseline:doc -> candidate:doc -> delta list -> string
(** The delta table as GitHub markdown, prefixed with the two commits
    and the gate parameters and followed by a verdict summary — ready
    to paste into a PR description. Raises [Invalid_argument] on the
    [gate_pct] values {!compare_docs} rejects. *)
