(** Collateral (layered) composition of protocols.

    The standard way to build stabilizing systems hierarchically: a
    {e base} protocol stabilizes some structure (e.g. tree centers),
    and an {e overlay} computes on top of it (e.g. a leader tie-break).
    The composition gives the base priority at each process — an
    overlay action can only fire where no base action is enabled — so
    once the base has stabilized the overlay runs undisturbed, and the
    overlay's transient garbage cannot corrupt the base (overlay
    actions write the overlay component only; this module enforces it).

    The paper's Section 3.2 log N leader election is exactly such a
    composition: {!Stabalgo.Centers} plus a boolean coin layer. The
    test-suite rebuilds it with {!collateral} and checks it is
    step-for-step the hand-written {!Stabalgo.Center_leader}. *)

open Stabcore

type ('a, 'b) layered = { base : 'a; overlay : 'b }

val collateral :
  name:string ->
  base:'a Protocol.t ->
  overlay_domain:(int -> 'b list) ->
  overlay_actions:('a, 'b) layered Protocol.action list ->
  overlay_equal:('b -> 'b -> bool) ->
  overlay_pp:(Format.formatter -> 'b -> unit) ->
  ?overlay_randomized:bool ->
  unit ->
  ('a, 'b) layered Protocol.t
(** [collateral ~name ~base ~overlay_domain ~overlay_actions ...]:

    - base actions are lifted to the layered state (guards read the
      base projection; statements update the base component and keep
      the overlay component);
    - each overlay action's guard is conjoined with "no base action
      enabled at this process" (priority), and its statement's base
      component is overridden with the pre-step value (write
      protection);
    - the result is randomized iff the base is or
      [overlay_randomized = true] (set it when overlay statements
      assign P-variables). *)

val lift_base_spec : 'a Spec.t -> ('a, 'b) layered Spec.t
(** Judge only the base component (steps included, up to the overlay's
    stuttering on the base). *)
