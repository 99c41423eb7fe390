(** QCheck properties as Alcotest cases that replay: every property
    draws from a fresh generator state seeded by one fixed seed, which
    the environment variable [QCHECK_SEED] overrides. The seed in use
    is printed once, before the first case is built, so a failure
    reproduces from the test output alone. *)

val seed : int Lazy.t
(** The seed: [QCHECK_SEED] when set to an integer, else 2008. *)

val to_alcotest : QCheck2.Test.t -> unit Alcotest.test_case
(** [QCheck_alcotest.to_alcotest] with a generator state made from
    {!seed}. *)
