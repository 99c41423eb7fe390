(** The metrics registry: named gauges and labels, plus one-call
    snapshot access to every metric the process maintains.

    {!Obs.Counter} answers "how many so far" and {!Dist} "how are they
    spread"; a {b gauge} is the missing third kind — a value that goes
    up and down (cells remaining, workers busy) — and a {b label} its
    textual sibling (the campaign name, a worker's current cell). The
    registry ties all four together: {!snapshot} reads every counter,
    gauge, label and distribution at one instant, from any domain,
    without stopping writers. This is what the campaign status server
    serves on [/metrics] and [/status].

    {b Same cost discipline as counters.} When dark ({!Obs.hot}
    false) a gauge [set]/[add] and a label [set] are one atomic load
    and a branch — nothing is stored. Installing any sink (the status
    server installs {!Obs.null_sink}) or enabling the {!Flight}
    recorder lights them.

    {b Never torn.} Gauges and labels are single [Atomic.t] cells, so
    a reader sees either the value before a concurrent write or the
    value after it, never a mix; counter cells are single-writer
    atomics merged on read, so a counter incremented with non-negative
    amounts can only grow between two snapshots. [test_obs.ml] pins
    both properties under hammering domains. *)

module Gauge : sig
  type t

  val make : string -> t
  (** Registers a new named gauge. Gauges live for the process; make
      them once at module initialization, not per call. *)

  val set : t -> int -> unit
  (** No-op when dark (see {!Obs.hot}). *)

  val add : t -> int -> unit
  (** Atomic increment (negative [k] decrements); no-op when dark. *)
end

module Label : sig
  type t

  val make : string -> t

  val set : t -> string -> unit
  (** No-op when dark. *)
end

type snapshot = {
  ts_ns : int;  (** monotonic instant the snapshot was taken *)
  counters : (string * int) list;  (** {!Obs.Counter.snapshot} *)
  gauges : (string * int) list;
      (** every registered gauge with its current value, in
          registration order *)
  labels : (string * string) list;
      (** every set label, in registration order; never-set labels
          are omitted *)
  dists : (string * Dist.summary) list;  (** {!Dist.snapshot} *)
}

val snapshot : unit -> snapshot
(** One coherent-enough read of everything: each metric is read
    atomically (no torn values); the snapshot as a whole is not a
    global barrier — metrics written while it runs may or may not be
    included, which is the right trade for never blocking writers. *)

val snapshot_json : snapshot -> Json.t
(** [{"ts_ns":..., "counters":{...}, "gauges":{...}, "labels":{...},
    "dists":{"name":{"count":...,"mean":...,...},...}}] — the
    machine-readable rendering served under [/status]. *)
