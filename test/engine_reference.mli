(** The list-based execution loop {!Stabcore.Engine.run} replaced.

    Each step asks {!Stabcore.Protocol.enabled_processes} for the
    enabled set, samples through {!Stabcore.Protocol.step_sample}, and
    tracks rounds with a frontier list filtered by [List.mem]. It
    evaluates the guards of every process several times a step, which
    is why the library no longer uses it; the engine tests run both
    loops on the same seeds and require the same run, field for field
    and event for event. *)

open Stabcore

val run :
  ?record:bool ->
  ?stop_on:'a Spec.t ->
  ?inject:(step:int -> cfg:'a array -> 'a array option) ->
  max_steps:int ->
  Stabrng.Rng.t ->
  'a Protocol.t ->
  'a Scheduler.t ->
  init:'a array ->
  'a Engine.run
(** Same contract as {!Stabcore.Engine.run}. *)
