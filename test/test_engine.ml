(* Tests for the execution engine, schedulers and trace machinery. *)

open Stabcore

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_run_reaches_terminal () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r = Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init:[| 1; 1 |] in
  Alcotest.(check bool) "stops at terminal" true (r.Engine.stop = Engine.Terminal);
  Alcotest.(check bool) "final is terminal" true (Protocol.is_terminal p r.Engine.final);
  Alcotest.(check int) "one step suffices" 1 r.Engine.steps

let test_run_converged_stop () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 5 in
  let r =
    Engine.run ~stop_on:Fixtures.coin_spec ~max_steps:10_000 rng p
      (Scheduler.central_first ()) ~init:[| 0 |]
  in
  Alcotest.(check bool) "converged" true (r.Engine.stop = Engine.Converged);
  Alcotest.(check int) "final state 2" 2 r.Engine.final.(0)

let test_run_exhausted () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  let rng = Stabrng.Rng.create 2 in
  let init = Stabalgo.Token_ring.legitimate_config ~n:5 in
  (* A legitimate token ring never terminates: budget must bound it. *)
  let r = Engine.run ~max_steps:30 rng p (Scheduler.central_first ()) ~init in
  Alcotest.(check bool) "exhausted" true (r.Engine.stop = Engine.Exhausted);
  Alcotest.(check int) "steps = budget" 30 r.Engine.steps

let test_run_records_trace () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r = Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init:[| 1; 1 |] in
  Alcotest.(check int) "one event" 1 (List.length r.Engine.trace.Engine.events);
  let e = List.hd r.Engine.trace.Engine.events in
  Alcotest.(check (list (pair int string))) "fired labels" [ (0, "bump") ] e.Engine.fired

let test_run_no_record () =
  let p = Fixtures.mod3_protocol () in
  let rng = Stabrng.Rng.create 1 in
  let r =
    Engine.run ~record:false ~max_steps:10 rng p (Scheduler.central_first ())
      ~init:[| 1; 1 |]
  in
  Alcotest.(check int) "no events" 0 (List.length r.Engine.trace.Engine.events);
  Alcotest.(check int) "still stepped" 1 r.Engine.steps

let test_run_does_not_mutate_init () =
  let p = Fixtures.mod3_protocol () in
  let init = [| 1; 1 |] in
  let rng = Stabrng.Rng.create 1 in
  ignore (Engine.run ~max_steps:10 rng p (Scheduler.central_first ()) ~init);
  Alcotest.(check (array int)) "init preserved" [| 1; 1 |] init

let test_convergence_time () =
  let p = Fixtures.coin_protocol ~p_stop:0.5 () in
  let rng = Stabrng.Rng.create 3 in
  (match
     Engine.convergence_cost ~max_steps:10_000 rng p (Scheduler.central_first ())
       Fixtures.coin_spec ~init:[| 0 |]
   with
  | Some (t, _) -> Alcotest.(check bool) "positive time" true (t >= 1)
  | None -> Alcotest.fail "should converge");
  (* Already-legitimate start takes zero steps. *)
  match
    Engine.convergence_cost ~max_steps:10 rng p (Scheduler.central_first ())
      Fixtures.coin_spec ~init:[| 2 |]
  with
  | Some (0, _) -> ()
  | other -> Alcotest.failf "expected Some 0, got %s"
               (match other with None -> "None" | Some (t, _) -> string_of_int t)

let test_replay () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0; 1 ] ] in
  Alcotest.(check (array int)) "replayed step" [| 2; 2 |] (Engine.final_config trace)

let test_replay_validation () =
  let p = Fixtures.mod3_protocol () in
  Alcotest.check_raises "disabled process"
    (Invalid_argument "Engine.replay: process 0 not enabled at scripted step") (fun () ->
      ignore (Engine.replay p ~init:[| 0; 1 |] [ [ 0 ] ]));
  Alcotest.check_raises "empty step" (Invalid_argument "Engine.replay: empty step")
    (fun () -> ignore (Engine.replay p ~init:[| 1; 1 |] [ [] ]));
  let randomized = Fixtures.coin_protocol () in
  Alcotest.check_raises "randomized protocol"
    (Invalid_argument "Engine.replay: protocol is randomized; replay requires determinism")
    (fun () -> ignore (Engine.replay randomized ~init:[| 0 |] [ [ 0 ] ]))

let test_configs_and_final () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  Alcotest.(check int) "two configs" 2 (List.length (Engine.configs trace));
  Alcotest.(check (array int)) "final" [| 2; 1 |] (Engine.final_config trace);
  let empty = Engine.replay p ~init:[| 0; 1 |] [] in
  Alcotest.(check (array int)) "final of empty trace" [| 0; 1 |] (Engine.final_config empty)

(* Scheduler behaviours *)

let test_central_random_picks_one () =
  let s = Scheduler.central_random () in
  let rng = Stabrng.Rng.create 1 in
  for _ = 1 to 100 do
    match s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 3; 5; 9 ] with
    | [ p ] -> Alcotest.(check bool) "member" true (List.mem p [ 3; 5; 9 ])
    | l -> Alcotest.failf "central chose %d processes" (List.length l)
  done

let test_distributed_random_subsets () =
  let s = Scheduler.distributed_random () in
  let rng = Stabrng.Rng.create 2 in
  for _ = 1 to 200 do
    let chosen = s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1; 2; 3 ] in
    Alcotest.(check bool) "non-empty" true (chosen <> []);
    Alcotest.(check bool) "subset" true (List.for_all (fun p -> List.mem p [ 1; 2; 3 ]) chosen)
  done

let test_synchronous_takes_all () =
  let s = Scheduler.synchronous () in
  let rng = Stabrng.Rng.create 3 in
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ]
    (s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1; 2; 3 ])

let test_round_robin_cycles () =
  let s = Scheduler.round_robin () in
  let rng = Stabrng.Rng.create 4 in
  let pick enabled = s.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled in
  Alcotest.(check (list int)) "first" [ 0 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "second" [ 1 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "third" [ 2 ] (pick [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "wraps" [ 0 ] (pick [ 0; 1; 2 ])

let test_adversary_validation () =
  let bad = Scheduler.adversary ~name:"bad" (fun _ _ -> [ 99 ]) in
  let rng = Stabrng.Rng.create 5 in
  Alcotest.check_raises "invalid choice"
    (Invalid_argument "bad: adversary chose a disabled process") (fun () ->
      ignore (bad.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1 ]));
  let empty = Scheduler.adversary ~name:"empty" (fun _ _ -> []) in
  Alcotest.check_raises "empty choice"
    (Invalid_argument "empty: adversary chose the empty set") (fun () ->
      ignore (empty.Scheduler.choose rng ~step:0 ~cfg:[||] ~enabled:[ 1 ]))

let test_adversary_sees_config () =
  let s =
    Scheduler.adversary ~name:"config-driven" (fun cfg enabled ->
        List.filter (fun p -> cfg.(p) = 1) enabled)
  in
  let rng = Stabrng.Rng.create 6 in
  Alcotest.(check (list int)) "driven by cfg" [ 1 ]
    (s.Scheduler.choose rng ~step:0 ~cfg:[| 0; 1 |] ~enabled:[ 0; 1 ])

(* Trace rendering *)

let test_trace_pp () =
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  let rendered = Trace.to_string p trace in
  Alcotest.(check bool) "mentions initial config" true (contains ~needle:"[1 1]" rendered);
  Alcotest.(check bool) "mentions fired action" true (contains ~needle:"0:bump" rendered);
  Alcotest.(check bool) "mentions successor" true (contains ~needle:"[2 1]" rendered)

(* The engine against the list-based loop it replaced
   ({!Engine_reference}): every registry protocol, plain and
   transformed, under five daemons, three fault regimes and three
   seeds. Both loops draw from equal streams and must agree on the run
   field for field, on every recorded event, and on the stream they
   leave behind (so they drew the same number of times). *)
let daemons () =
  [
    ("central-random", Scheduler.central_random);
    ("distributed-random", Scheduler.distributed_random);
    ("synchronous", Scheduler.synchronous);
    ("round-robin", Scheduler.round_robin);
    ( "crash(wake=0.3)",
      fun () -> Scheduler.crash ~wake_p:0.3 ~failed:[ 1 ] (Scheduler.distributed_random ()) );
    ("crash", fun () -> Scheduler.crash ~failed:[ 0; 1 ] (Scheduler.central_random ()));
  ]

let plans p =
  [
    ("no faults", None);
    ("periodic", Some (Faults.periodic p ~gap:7 ~faults:1));
    ("burst", Some (Faults.burst p ~at:[ 2; 9 ] ~faults:2));
  ]

let topology_for name =
  match Stabexp.Registry.find ~name ~topology:"ring:5" () with
  | _ -> "ring:5"
  | exception Invalid_argument _ -> "random:6:3"

let same_run (type a) (p : a Protocol.t) tag (r : a Engine.run) (e : a Engine.run) =
  let cfg = Protocol.equal_config p in
  let check_bool what ok = if not ok then Alcotest.failf "%s: %s differs" tag what in
  Alcotest.(check int) (tag ^ ": steps") e.Engine.steps r.Engine.steps;
  Alcotest.(check int) (tag ^ ": rounds") e.Engine.rounds r.Engine.rounds;
  Alcotest.(check int) (tag ^ ": injections") e.Engine.injections r.Engine.injections;
  check_bool "stop" (e.Engine.stop = r.Engine.stop);
  check_bool "final" (cfg e.Engine.final r.Engine.final);
  let ev = r.Engine.trace.Engine.events and ev' = e.Engine.trace.Engine.events in
  Alcotest.(check int) (tag ^ ": events") (List.length ev') (List.length ev);
  List.iter2
    (fun (a : a Engine.event) (b : a Engine.event) ->
      check_bool "event before" (cfg a.Engine.before b.Engine.before);
      check_bool "event after" (cfg a.Engine.after b.Engine.after);
      Alcotest.(check (list (pair int string))) (tag ^ ": fired") b.Engine.fired a.Engine.fired)
    ev ev'

let test_engine_matches_reference () =
  let compared = ref 0 and stopped = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let topology = topology_for name in
      List.iter
        (fun transformed ->
          let (Stabexp.Registry.Entry e) = Stabexp.Registry.find ~name ~topology ~transformed () in
          let p = e.protocol in
          List.iter
            (fun seed ->
              List.iter
                (fun (dname, daemon) ->
                  List.iter
                    (fun (fname, plan) ->
                      let tag =
                        Printf.sprintf "%s%s@%s %s %s seed %d"
                          (if transformed then "trans:" else "")
                          name topology dname fname seed
                      in
                      let init = Protocol.random_config (Stabrng.Rng.create (seed + 1000)) p in
                      (* Odd seeds stop in L; even ones run to a terminal
                         configuration, a stall or the budget. *)
                      let stop_on = if seed land 1 = 1 then Some e.spec else None in
                      let go run =
                        let rng = Stabrng.Rng.create seed in
                        let inject = Option.map (fun plan -> Faults.arm plan rng) plan in
                        let r = run ?stop_on ?inject ~max_steps:120 rng p (daemon ()) ~init in
                        (r, Stabrng.Rng.float rng)
                      in
                      let r, after = go (Engine.run ~record:true) in
                      let r', after' = go (Engine_reference.run ~record:true) in
                      same_run p tag r r';
                      Alcotest.(check (float 0.0)) (tag ^ ": stream after") after' after;
                      Hashtbl.replace stopped r.Engine.stop ();
                      incr compared)
                    (plans p))
                (daemons ()))
            [ 1; 2; 3 ])
        [ false; true ])
    Stabexp.Registry.names;
  Alcotest.(check int) "runs compared"
    (List.length Stabexp.Registry.names * 2 * 3 * List.length (daemons ()) * 3)
    !compared;
  (* Every way a run can end was met. *)
  Alcotest.(check int) "stop reasons covered" 4 (Hashtbl.length stopped)

(* A statement whose two outcomes weigh 0.4 each: a chain built from it
   would carry a row summing to 0.8 and a hitting time with no meaning,
   so both consumers of outcome lists refuse it by name. *)
let leaky_coin () : int Protocol.t =
  let leak : int Protocol.action =
    {
      label = "leak";
      guard = (fun cfg p -> cfg.(p) <> 2);
      result = (fun _ _ -> [ (0, 0.4); (2, 0.4) ]);
    }
  in
  {
    Protocol.name = "leaky-coin";
    graph = Stabgraph.Graph.chain 1;
    domain = (fun _ -> [ 0; 1; 2 ]);
    actions = [ leak ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = true;
  }

let raises_malformed what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted a distribution summing to 0.8" what
  | exception Invalid_argument msg ->
    List.iter
      (fun needle ->
        if not (contains ~needle msg) then
          Alcotest.failf "%s: %S does not name %S" what msg needle)
      [ "leaky-coin"; "leak"; "process 0"; "0.8" ]

let test_malformed_distribution () =
  Pool.set_width 1;
  let p = leaky_coin () in
  raises_malformed "Montecarlo.estimate" (fun () ->
      Montecarlo.estimate ~runs:4 ~max_steps:50 (Stabrng.Rng.create 1) p
        Scheduler.central_random Fixtures.coin_spec);
  raises_malformed "Markov.of_space Sync" (fun () ->
      Markov.of_space (Statespace.build p) Markov.Sync);
  let leak = List.hd p.Protocol.actions in
  let empty = { p with Protocol.actions = [ { leak with result = (fun _ _ -> []) } ] } in
  Alcotest.check_raises "empty distribution"
    (Invalid_argument
       "Protocol leaky-coin: action leak at process 0 returned an empty outcome distribution")
    (fun () ->
      ignore
        (Engine.run ~max_steps:5 (Stabrng.Rng.create 1) empty (Scheduler.central_first ())
           ~init:[| 0 |]))

(* Allocation gate for the engine step: token-ring ring:24 under the
   distributed random daemon, 500 runs at width 1, from uniform
   configurations to the legitimate set. One guard pass per
   configuration, unboxed RNG draws and a legitimacy count that builds
   no list leave the configuration copy, the [enabled] and [active]
   lists and the drawn bits: 51 minor words a step measured (538 when
   every step evaluated each guard three times and boxed the RNG
   state). *)
let test_step_allocation () =
  Pool.set_width 1;
  let n = 24 in
  let p = Stabalgo.Token_ring.make ~n in
  let before = Gc.minor_words () in
  let r =
    Montecarlo.estimate ~runs:500 ~max_steps:100_000 (Stabrng.Rng.create 2008) p
      Scheduler.distributed_random (Stabalgo.Token_ring.spec ~n)
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no timeouts" 0 r.Montecarlo.timeouts;
  let steps = Array.fold_left ( + ) 0 r.Montecarlo.times in
  let per_step = words /. float_of_int steps in
  if per_step > 59.0 then
    Alcotest.failf "%.1f minor words per engine step, at most 59 allowed" per_step

(* The same gate for Algorithm 2: leader-tree on the random tree
   random:10:7 under the distributed random daemon, 500 runs at width 1.
   Its guards count children in place and its legitimacy predicate
   walks parent pointers without building a list or an option, so a
   step allocates little beyond the engine's own words and the drawn
   statement's outcome: 70.3 minor words a step measured (936 when the
   guards copied neighbour arrays, filtered lists and boxed every
   parent in an option). *)
let test_leader_tree_step_allocation () =
  Pool.set_width 1;
  let g = Stabgraph.Graph.random_tree (Stabrng.Rng.create 7) 10 in
  let before = Gc.minor_words () in
  let r =
    Montecarlo.estimate ~runs:500 ~max_steps:100_000 (Stabrng.Rng.create 2008)
      (Stabalgo.Leader_tree.make g) Scheduler.distributed_random (Stabalgo.Leader_tree.spec g)
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no timeouts" 0 r.Montecarlo.timeouts;
  let steps = Array.fold_left ( + ) 0 r.Montecarlo.times in
  let per_step = words /. float_of_int steps in
  if per_step > 80.0 then
    Alcotest.failf "%.1f minor words per engine step, at most 80 allowed" per_step

let suite =
  [
    Alcotest.test_case "run to terminal" `Quick test_run_reaches_terminal;
    Alcotest.test_case "run converged" `Quick test_run_converged_stop;
    Alcotest.test_case "run exhausted" `Quick test_run_exhausted;
    Alcotest.test_case "run records trace" `Quick test_run_records_trace;
    Alcotest.test_case "run without recording" `Quick test_run_no_record;
    Alcotest.test_case "run preserves init" `Quick test_run_does_not_mutate_init;
    Alcotest.test_case "convergence_time" `Quick test_convergence_time;
    Alcotest.test_case "replay" `Quick test_replay;
    Alcotest.test_case "replay validation" `Quick test_replay_validation;
    Alcotest.test_case "configs/final" `Quick test_configs_and_final;
    Alcotest.test_case "central random" `Quick test_central_random_picks_one;
    Alcotest.test_case "distributed random" `Quick test_distributed_random_subsets;
    Alcotest.test_case "synchronous" `Quick test_synchronous_takes_all;
    Alcotest.test_case "round robin" `Quick test_round_robin_cycles;
    Alcotest.test_case "adversary validation" `Quick test_adversary_validation;
    Alcotest.test_case "adversary sees config" `Quick test_adversary_sees_config;
    Alcotest.test_case "trace pp" `Quick test_trace_pp;
  ]

let test_trace_pp_compact_and_event () =
  (* One line per configuration; a step's line shows the fired
     (process:action) pairs on the arrow into its successor. *)
  let p = Fixtures.mod3_protocol () in
  let trace = Engine.replay p ~init:[| 1; 1 |] [ [ 0 ] ] in
  match String.split_on_char '\n' (Trace.to_string p trace) with
  | [ init; step ] ->
    Alcotest.(check bool) "initial line" true (contains ~needle:"[1 1]" init);
    Alcotest.(check bool) "step's arrow" true (contains ~needle:"--{0:bump}--> [2 1]" step)
  | lines -> Alcotest.failf "expected two lines, got %d" (List.length lines)

let extra_suite =
  [
    Alcotest.test_case "trace compact/event pp" `Quick test_trace_pp_compact_and_event;
    Alcotest.test_case "engine = reference loop" `Quick test_engine_matches_reference;
    Alcotest.test_case "malformed distribution" `Quick test_malformed_distribution;
    Alcotest.test_case "step allocation" `Quick test_step_allocation;
    Alcotest.test_case "leader-tree step allocation" `Quick test_leader_tree_step_allocation;
  ]

let suite = suite @ extra_suite
