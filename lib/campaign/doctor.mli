(** Post-mortem reader for flight-dump artifacts.

    [Stabobs.Flight] writes the black box (see its module doc for the
    JSONL schema); this module reads one back and renders what a
    post-mortem wants first: why the process died, the merged event
    timeline, what each Domain was doing last, the spans still open at
    the time of death, the counter/gauge snapshot, and heuristic hints
    for the known failure smells. Backs [stabsim doctor DUMP]. *)

type t = {
  header : Stabobs.Json.t;  (** the ["type":"flight"] provenance line *)
  sections : (string * Stabobs.Json.t) list;
      (** registered dump sections (["pool"], ["campaign"], ...) in
          file order *)
  registry : Stabobs.Json.t option;  (** the metric snapshot, if present *)
  events : Stabobs.Json.t list;
      (** merged ring events in timestamp order, JSONL-sink schema *)
}

val load : string -> (t, string) result
(** Read and classify a dump file; [Error] carries a one-line cause
    (unreadable file, torn line, not a flight dump). *)

val render : ?last:int -> t -> string
(** The full human report ([last] caps the merged timeline, default
    20). It ends with the heuristic diagnoses, one ["  - "] line each
    under ["hints:"], when anything smells: an in-flight cell past its
    deadline whose token stopped being polled, a worker heartbeat gap
    (one cell held far longer than the dump instant), and the sparse
    solver burning its sweep budget ([Max_sweeps]). *)
