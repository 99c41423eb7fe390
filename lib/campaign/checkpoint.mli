(** Crash-resumable campaign checkpoints: append-only, fsync'd JSONL.

    Every finished cell appends one record keyed by the cell spec's
    content hash. Appends are flushed {e and} fsync'd before the
    runner moves on, so a SIGKILL (or power loss) can lose at most the
    cell in flight — never a cell already reported done. Loading is
    tolerant: a torn final line (the crash arrived mid-write) is
    skipped, and on duplicate hashes the later record wins, so a
    resumed run that re-executes a cell simply supersedes it. *)

type status = Done | Degraded | Timed_out | Quarantined

val status_to_string : status -> string
(** ["done" | "degraded" | "timed-out" | "quarantined"]. *)

type record = {
  hash : string;  (** {!Campaign.cell_hash} of the cell spec *)
  label : string;  (** {!Campaign.cell_label}, for humans reading the file *)
  status : status;
  mode : string;  (** final ladder rung: "exact" | "onthefly" | "montecarlo" | "-" *)
  retries : int;  (** attempts beyond the first *)
  payload : Stabobs.Json.t;  (** analysis result; [Null] for quarantined cells *)
  error : string option;
}

type sink
(** An open checkpoint file, append mode. Appends are serialized with
    a mutex so campaign workers on several domains interleave whole
    lines, never bytes. *)

val open_append : ?fresh:bool -> name:string -> string -> sink
(** Open (creating if needed) the checkpoint file at a path. A new or
    [fresh:true]-truncated file gets a ["campaign"] header line naming
    the campaign. *)

val append : sink -> record -> unit
(** Write one line, flush, [Unix.fsync]. *)

val close : sink -> unit

val load : string -> record list
(** The cell records of a checkpoint file in file order, unparsable
    and non-cell lines skipped; a missing file is an empty
    checkpoint. *)

val index : record list -> (string, record) Hashtbl.t
(** Key records by hash, later records winning. *)
