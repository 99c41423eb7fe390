(* Tests for the shared work-stealing Domain pool: chunk coverage and
   byte-identical results across widths, stealing under skew,
   cancellation draining, exception propagation, and helper lifecycle.

   Width changes are process-global, so every test restores width 1
   (the default on single-core CI boxes) before returning — the rest
   of the suite expects the serial fast path. *)

open Stabcore
module Obs = Stabobs.Obs

let with_width w f =
  Pool.set_width w;
  Fun.protect ~finally:(fun () -> Pool.set_width 1) f

(* --- coverage ------------------------------------------------------- *)

(* Every index visited exactly once, whatever the width and however
   aggressively ranges split (grain_ns:0 splits down to min_chunk). *)
let test_parallel_for_covers () =
  List.iter
    (fun w ->
      with_width w (fun () ->
          for _rep = 1 to 3 do
            let n = 10_000 in
            let hits = Array.make n 0 in
            Pool.parallel_for ~grain_ns:0 ~min_chunk:7 n (fun ~lo ~hi ->
                for i = lo to hi - 1 do
                  hits.(i) <- hits.(i) + 1
                done);
            Array.iteri
              (fun i h ->
                if h <> 1 then
                  Alcotest.failf "width %d: index %d visited %d times" w i h)
              hits
          done))
    [ 1; 2; 4 ]

let test_parallel_for_edges () =
  with_width 2 (fun () ->
      Pool.parallel_for 0 (fun ~lo:_ ~hi:_ -> Alcotest.fail "body on n = 0");
      let hit = ref 0 in
      Pool.parallel_for 1 (fun ~lo ~hi -> hit := !hit + ((hi - lo) * 10) + lo);
      Alcotest.(check int) "single unit, one chunk" 10 !hit)

let test_scatter_covers () =
  List.iter
    (fun w ->
      with_width w (fun () ->
          let k = 7 in
          let hits = Array.make k (Atomic.make 0) in
          Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
          Pool.scatter k (fun i -> Atomic.incr hits.(i));
          Array.iteri
            (fun i a ->
              Alcotest.(check int)
                (Printf.sprintf "width %d task %d" w i)
                1 (Atomic.get a))
            hits))
    [ 1; 3 ]

(* --- determinism ---------------------------------------------------- *)

(* The expansion splits its passes into ranges at every width and
   writes each range at its global offsets; this pins the packed graph
   across widths on spaces large enough to split: token-ring ring:8
   (6561 configurations), the ring:10 quotient (5934 orbit
   representatives) and Herman's ring of 7 (128 configurations), whose
   randomized rows repeat targets with unequal weights. A fresh
   [Statespace.build] per run defeats the (space, class) expansion
   cache. Under a null sink [pool.tasks] must rise at width > 1, so the
   test cannot silently fall back to a single inline range. *)
type space = Space : (unit -> 'a Statespace.t) -> space

let spaces =
  [
    ("token-ring ring:8", Space (fun () -> Statespace.build (Stabalgo.Token_ring.make ~n:8)));
    ( "token-ring ring:10 quotient",
      Space
        (fun () -> Statespace.quotient (Statespace.build (Stabalgo.Token_ring.make ~n:10)))
    );
    ("herman ring:7", Space (fun () -> Statespace.build (Stabalgo.Herman.make ~n:7)));
  ]

let counting_tasks f =
  let before = Obs.Counter.value Obs.pool_tasks in
  let r = f () in
  (r, Obs.Counter.value Obs.pool_tasks - before)

let expansion_rows (Space build) =
  let space = build () in
  let g, tasks = counting_tasks (fun () -> Checker.expand space Statespace.Distributed) in
  (List.init (Statespace.count space) (Checker.weighted_row g), tasks)

let identical_across_widths what rows () =
  Obs.install (Obs.null_sink ());
  Fun.protect ~finally:Obs.clear @@ fun () ->
  List.iter
    (fun (label, build) ->
      let reference, _ = with_width 1 (fun () -> rows build) in
      List.iter
        (fun w ->
          with_width w (fun () ->
              for rep = 1 to 2 do
                let got, tasks = rows build in
                if got <> reference then
                  Alcotest.failf "%s, width %d rep %d: %s differ from width 1" label w
                    rep what;
                if w > 1 && tasks <= 0 then
                  Alcotest.failf "%s, width %d: %s never reached the pool" label w what
              done))
        [ 1; 2; 4 ])
    spaces

let test_expansion_identical_across_widths =
  identical_across_widths "weighted rows" expansion_rows

(* A chain is the checker's graph, merged on demand, and runs no pool
   task of its own. The chains of token-ring ring:8, of the ring:10
   quotient and of Herman's rings of 7 and 9 (whose randomized rows
   sum repeated targets' unequal weights in arrival order) have the
   same rows and Gauss-Seidel hitting times, bit for bit, at widths 1,
   2 and 4, over an expansion (and a symmetry validation) split at
   every width. *)
type chain_space = Chain : string * (unit -> 'a Statespace.t) * 'a Spec.t -> chain_space

let chain_spaces =
  let token_ring ~n ~quotient =
    Chain
      ( Printf.sprintf "token-ring ring:%d%s" n (if quotient then " quotient" else ""),
        (fun () ->
          let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
          if quotient then Statespace.quotient space else space),
        Stabalgo.Token_ring.spec ~n )
  and herman ~n =
    Chain
      ( Printf.sprintf "herman ring:%d" n,
        (fun () -> Statespace.build (Stabalgo.Herman.make ~n)),
        Stabalgo.Herman.spec ~n )
  in
  [
    token_ring ~n:8 ~quotient:false;
    token_ring ~n:10 ~quotient:true;
    herman ~n:7;
    herman ~n:9;
  ]

let test_factored_markov_identical_across_widths () =
  Obs.install (Obs.null_sink ());
  Fun.protect ~finally:Obs.clear @@ fun () ->
  List.iter
    (fun (Chain (label, build, spec)) ->
      let answer () =
        let space = build () in
        let legitimate = Statespace.legitimate_set space spec in
        let chain = Markov.of_space space Markov.Distributed_uniform in
        let rows =
          List.init (Markov.states chain) (fun c ->
              List.map (fun (t, w) -> (t, Int64.bits_of_float w)) (Markov.row chain c))
        in
        let times, _ = Markov.sparse_hitting_times chain ~legitimate in
        (rows, Array.map Int64.bits_of_float times)
      in
      let reference = with_width 1 answer in
      List.iter
        (fun w ->
          if with_width w answer <> reference then
            Alcotest.failf "%s, width %d: rows or hitting times differ" label w)
        [ 2; 4 ])
    chain_spaces

(* Every sampler draws the same sample at every pool width: one stream
   per run is pre-split in run order (Montecarlo.sample), and each run
   builds its own daemon, so even round-robin is safe on the pool.
   Clearing the grain estimates before each call makes the pool open
   with 2 * width chunks, so at width > 1 every sampler must split
   (pool.tasks > 1) however cheap its runs are. *)
let test_montecarlo_identical_across_widths () =
  Obs.install (Obs.null_sink ());
  Fun.protect ~finally:Obs.clear @@ fun () ->
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let legitimate = Stabalgo.Token_ring.legitimate_config ~n in
  let plan = Faults.periodic p ~gap:7 ~faults:1 in
  let runs = 40 in
  let rng () = Stabrng.Rng.create 2024 in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  let result (r : Montecarlo.result) =
    if Array.length r.times + r.timeouts <> runs then
      Alcotest.failf "%d runs sampled, %d accounted for" runs
        (Array.length r.times + r.timeouts);
    Printf.sprintf "%s / %s / %d" (ints r.times) (ints r.rounds) r.timeouts
  in
  let summary (s : Stabstats.Stats.summary) =
    Printf.sprintf "%d %h %h %h %h" s.count s.mean s.stddev s.min s.max
  in
  let samplers =
    [
      ( "estimate",
        fun () ->
          result
            (Montecarlo.estimate ~runs ~max_steps:10_000 (rng ()) p
               Scheduler.central_random spec) );
      ( "estimate ~inject ~init",
        fun () ->
          result
            (Montecarlo.estimate ~inject:(Faults.arm plan)
               ~init:(fun s -> Faults.corrupt s p legitimate ~faults:2)
               ~runs ~max_steps:10_000 (rng ()) p Scheduler.distributed_random spec) );
      ( "recovery_profile ~plan",
        fun () ->
          result
            (Faults.recovery_profile ~plan ~runs ~max_steps:10_000 (rng ()) p
               Scheduler.central_random spec ~from:legitimate ~faults:2) );
      ( "availability_profile",
        fun () ->
          summary
            (Faults.availability_profile ~runs ~horizon:200 (rng ()) p
               Scheduler.round_robin spec ~plan ~init:legitimate) );
      ( "sample_convergence",
        fun () ->
          result
            (Stabalgo.Israeli_jalfon.sample_convergence ~runs ~max_steps:10_000 (rng ())
               ~n:8 ~init_tokens:[ 0; 2; 4; 6 ]) );
    ]
  in
  let run sampler =
    Pool.Grain.reset_all ();
    counting_tasks sampler
  in
  let reference = with_width 1 (fun () -> List.map (fun (_, f) -> fst (run f)) samplers) in
  List.iter
    (fun w ->
      with_width w (fun () ->
          List.iter2
            (fun (name, f) want ->
              let got, tasks = run f in
              if got <> want then Alcotest.failf "width %d: %s sample differs" w name;
              if tasks <= 1 then
                Alcotest.failf "width %d: %s ran as one chunk (%d tasks)" w name tasks)
            samplers reference))
    [ 2; 4 ]

(* --- stealing ------------------------------------------------------- *)

(* Skewed range: the caller parks in the first chunk, so the split-off
   right halves sit on its deque until a helper steals them. Even on
   one core the sleeping caller yields the cpu to the helper. *)
let test_steals_under_skew () =
  (* Counters are dropped while no sink is installed; give the test a
     throwaway memory sink so pool.steals actually ticks. *)
  let sink, _ = Obs.memory_sink () in
  Obs.install sink;
  Fun.protect ~finally:Obs.clear @@ fun () ->
  with_width 2 (fun () ->
      let before = Obs.Counter.value Obs.pool_steals in
      let slept = ref false in
      Pool.parallel_for ~grain_ns:0 ~min_chunk:1 4 (fun ~lo ~hi:_ ->
          if lo = 0 && not !slept then begin
            slept := true;
            Unix.sleepf 0.05
          end);
      let steals = Obs.Counter.value Obs.pool_steals - before in
      if steals < 1 then
        Alcotest.failf "expected at least one steal under skew, saw %d" steals)

(* --- cancellation --------------------------------------------------- *)

(* Cancelling mid-job: the join still drains every task (no stuck
   remaining-count), raises Cancelled, and keeps the helpers alive for
   the next call. *)
let test_cancellation_drains () =
  with_width 2 (fun () ->
      let tok = Cancel.create () in
      let raised =
        try
          Cancel.with_current tok (fun () ->
              Pool.parallel_for ~grain_ns:0 ~min_chunk:1 64 (fun ~lo ~hi ->
                  if lo = 0 then Cancel.cancel tok;
                  for _ = lo to hi - 1 do
                    Cancel.poll ()
                  done));
          false
        with Cancel.Cancelled _ -> true
      in
      Alcotest.(check bool) "join re-raised Cancelled" true raised;
      Alcotest.(check bool)
        "helpers survive a cancelled job" true
        (Pool.helpers_alive () <= Pool.width () - 1);
      (* The pool is immediately reusable with a fresh token. *)
      let sum = Atomic.make 0 in
      Pool.parallel_for ~min_chunk:1 100 (fun ~lo ~hi ->
          ignore (Atomic.fetch_and_add sum (hi - lo)));
      Alcotest.(check int) "pool usable after cancellation" 100 (Atomic.get sum))

(* --- failures ------------------------------------------------------- *)

let test_exception_propagates () =
  with_width 2 (fun () ->
      for _rep = 1 to 2 do
        let raised =
          try
            Pool.parallel_for ~grain_ns:0 ~min_chunk:1 32 (fun ~lo ~hi:_ ->
                if lo >= 16 then failwith "boom");
            false
          with Failure m when m = "boom" -> true
        in
        Alcotest.(check bool) "first exception re-raised at join" true raised
      done;
      (* All tasks drained: a fresh job is not corrupted by the failed
         one and completes fully. *)
      let sum = Atomic.make 0 in
      Pool.parallel_for ~min_chunk:1 64 (fun ~lo ~hi ->
          ignore (Atomic.fetch_and_add sum (hi - lo)));
      Alcotest.(check int) "pool usable after failure" 64 (Atomic.get sum))

(* --- lifecycle ------------------------------------------------------ *)

let test_width_lifecycle () =
  Pool.set_width 3;
  Alcotest.(check int) "helpers spawn lazily" 0 (Pool.helpers_alive ());
  Pool.parallel_for ~grain_ns:0 ~min_chunk:1 8 (fun ~lo:_ ~hi:_ -> ());
  Alcotest.(check int) "width-1 helpers after first call" 2
    (Pool.helpers_alive ());
  Pool.set_width 1;
  Alcotest.(check int) "set_width 1 joins all helpers" 0
    (Pool.helpers_alive ());
  Alcotest.(check bool) "default width is at least 1" true
    (Pool.default_width () >= 1)

(* --- grain estimator ------------------------------------------------ *)

let test_grain_damping () =
  let s = Pool.Grain.site "test.grain" in
  Alcotest.(check (float 0.0)) "starts unmeasured" 0.0 (Pool.Grain.ns_per_unit s);
  Pool.Grain.measured s ~units:1_000 ~ns:1_000_000;
  Alcotest.(check (float 1e-9)) "first measurement taken raw" 1000.0
    (Pool.Grain.ns_per_unit s);
  (* A wild outlier moves the estimate by at most alpha * max_change:
     one preempted chunk cannot wreck the grain. *)
  Pool.Grain.measured s ~units:1_000 ~ns:100_000_000;
  Alcotest.(check (float 1e-9)) "outlier clamped then damped" 1100.0
    (Pool.Grain.ns_per_unit s);
  (* Sub-5% jitter is ignored entirely. *)
  Pool.Grain.measured s ~units:1_000 ~ns:1_120_000;
  Alcotest.(check (float 1e-9)) "jitter below min_change ignored" 1100.0
    (Pool.Grain.ns_per_unit s);
  Alcotest.(check bool) "snapshot lists the site" true
    (List.mem_assoc "test.grain" (Pool.Grain.snapshot ()))

let suite =
  [
    Alcotest.test_case "parallel_for covers once per index" `Quick
      test_parallel_for_covers;
    Alcotest.test_case "parallel_for edge sizes" `Quick test_parallel_for_edges;
    Alcotest.test_case "scatter covers once per task" `Quick test_scatter_covers;
    Alcotest.test_case "expansion identical across widths" `Quick
      test_expansion_identical_across_widths;
    Alcotest.test_case "factored markov identical across widths" `Quick
      test_factored_markov_identical_across_widths;
    Alcotest.test_case "montecarlo identical across widths" `Quick
      test_montecarlo_identical_across_widths;
    Alcotest.test_case "steals under skew" `Quick test_steals_under_skew;
    Alcotest.test_case "cancellation drains" `Quick test_cancellation_drains;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "width lifecycle" `Quick test_width_lifecycle;
    Alcotest.test_case "grain damping" `Quick test_grain_damping;
  ]
