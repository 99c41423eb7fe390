(** Declarative experiment campaigns: matrices of analysis cells.

    The paper's comparison of weak / self / probabilistic stabilization
    is a matrix of point checks — (protocol × topology × daemon × fault
    plan × analysis mode). A campaign file declares that matrix once;
    {!Runner} executes it shard-by-shard with timeouts, retries and
    crash-resumable checkpoints.

    The file format is JSON (parsed with {!Stabobs.Json}):

    {v
    {
      "name": "smoke",
      "seed": 42,
      "timeout_ms": 5000,
      "retries": 2,
      "backoff_ms": 100,
      "runs": 400, "max_steps": 200000, "max_configs": 2000000,
      "matrix": {
        "protocol": ["token-ring", "dijkstra-3state"],
        "topology": ["ring:5", "ring:6"],
        "sched": ["central", "distributed"],
        "analysis": ["check", "markov", "montecarlo"],
        "faults": ["none", "periodic:50:1"],
        "transformed": [false]
      },
      "cells": [ { "protocol": "herman", "topology": "ring:5",
                   "sched": "synchronous", "analysis": "montecarlo" } ]
    }
    v}

    Every key except ["matrix"]/["cells"] has a default; the matrix is
    the cross product of its axes (in the order protocol, topology,
    sched, analysis, faults, transformed), and explicit ["cells"]
    entries are appended after it. Fault plans only make sense for
    simulation, so matrix combinations pairing a non-["none"] fault
    plan with a non-["montecarlo"] analysis are dropped rather than
    generated. See [docs/campaigns.md]. *)

type analysis = Stabcore.Analysis.question = Check | Markov | Montecarlo

type faults =
  | No_faults
  | Periodic of { gap : int; faults : int }
  | Bernoulli of { rate : float; faults : int }
  | Burst of { at : int list; faults : int }

type cell = {
  protocol : string;  (** a {!Stabexp.Registry} name *)
  topology : string;  (** e.g. ["ring:5"] *)
  transformed : bool;  (** pass through the Section 4 transformer *)
  sched : Stabcore.Statespace.sched_class;
  analysis : analysis;
  faults : faults;  (** applied during Monte-Carlo runs only *)
  runs : int;  (** Monte-Carlo sample count *)
  max_steps : int;  (** Monte-Carlo per-run step budget *)
  max_configs : int;  (** exact-analysis configuration budget *)
}

type t = {
  name : string;
  seed : int;  (** campaign seed; per-cell seeds derive from it *)
  timeout_ms : int option;  (** per-cell wall-clock budget *)
  retries : int;  (** transient-failure retry budget per cell *)
  backoff_ms : int;  (** base of the exponential backoff *)
  cells : cell list;
}

val of_json : Stabobs.Json.t -> (t, string) result
(** Parse and validate a campaign; [Error] names the first malformed
    field (see [docs/campaigns.md]). No protocol is built. *)

val load : string -> (t, string) result
(** Read and parse a campaign file. *)

val analysis_to_string : analysis -> string
val faults_to_string : faults -> string
val sched_to_string : Stabcore.Statespace.sched_class -> string

val cell_json : cell -> Stabobs.Json.t
(** Canonical (fixed key order) JSON of a cell spec — the hashing and
    checkpoint representation. *)

val cell_hash : cell -> string
(** Content hash (hex digest of {!cell_json}'s compact rendering).
    Checkpoint records are keyed by this, so editing a cell's spec in
    any way invalidates its checkpoint entry while leaving every other
    cell's intact. *)

val cell_label : cell -> string
(** Human-readable cell identifier, e.g.
    ["token-ring(ring:5)/central/check"]. *)

val cell_seed : t -> cell -> int
(** The cell's RNG seed: campaign seed mixed with the cell hash. A
    function of content only — not of position, shard or execution
    order — so resumed and uninterrupted runs of the same campaign
    produce identical per-cell results. *)
