(* Tests for the comparator algorithms: BGKP centers, the log N
   center-based leader election, Dijkstra's K-state ring, Herman's
   probabilistic ring and Israeli-Jalfon token management. *)

open Stabcore

(* --- Centers --- *)

let test_centers_fixed_point_marks_graph_centers () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          let p = Stabalgo.Centers.make g in
          let rng = Stabrng.Rng.create (17 * n) in
          let init = Protocol.random_config rng p in
          let r =
            Engine.run ~record:false ~max_steps:10_000 rng p
              (Scheduler.distributed_random ()) ~init
          in
          Alcotest.(check bool) "reaches a terminal configuration" true
            (r.Engine.stop = Engine.Terminal);
          let marked =
            List.filter
              (Stabalgo.Centers.is_center g r.Engine.final)
              (List.init n Fun.id)
          in
          Alcotest.(check (list int)) "marked = graph centers"
            (Stabgraph.Graph.centers g) marked)
        (Stabgraph.Graph.all_trees n))
    [ 2; 3; 4; 5; 6; 7 ]

let test_centers_self_stabilizing_exhaustive () =
  List.iter
    (fun g ->
      let p = Stabalgo.Centers.make g in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed
          (Stabalgo.Centers.spec g)
      in
      Alcotest.(check bool) "self-stabilizing" true (Checker.self_stabilizing v))
    (Stabgraph.Graph.all_trees 4)

let test_centers_desired_on_path () =
  let g = Stabgraph.Graph.chain 5 in
  (* Stable levels on P5 are [0;1;2;1;0]. *)
  let stable = [| 0; 1; 2; 1; 0 |] in
  Stabgraph.Graph.iter_nodes
    (fun p ->
      Alcotest.(check int) "desired at fixed point" stable.(p)
        (Stabalgo.Centers.desired g stable p))
    g

let test_centers_rejects_non_tree () =
  Alcotest.check_raises "ring" (Invalid_argument "Centers.make: graph is not a tree")
    (fun () -> ignore (Stabalgo.Centers.make (Stabgraph.Graph.ring 5)))

(* --- Center-based leader election (log N solution) --- *)

let test_center_leader_weak_stabilizing () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          let p = Stabalgo.Center_leader.make g in
          let v =
            Checker.analyze (Statespace.build p) Statespace.Distributed
              (Stabalgo.Center_leader.spec g)
          in
          Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v))
        (Stabgraph.Graph.all_trees n))
    [ 2; 3; 4 ]

let test_center_leader_two_centers_tie_break () =
  (* Even chain: two centers; from equal flags, activating one center
     reaches a terminal configuration with a unique leader. *)
  let g = Stabgraph.Graph.chain 4 in
  let p = Stabalgo.Center_leader.make g in
  let stable = [| 0; 1; 1; 0 |] in
  let init =
    Array.map (fun level -> { Stabalgo.Center_leader.level; flag = false }) stable
  in
  Alcotest.(check bool) "both centers L2-enabled" true
    (Protocol.is_enabled p init 1 && Protocol.is_enabled p init 2);
  let trace = Engine.replay p ~init [ [ 1 ] ] in
  let final = Engine.final_config trace in
  Alcotest.(check bool) "terminal" true (Protocol.is_terminal p final);
  Alcotest.(check (list int)) "unique leader" [ 1 ]
    (Stabalgo.Center_leader.leaders g final)

let test_center_leader_sync_oscillates () =
  (* Synchronously, both centers flip together forever: the tie is
     never broken (the Theorem 1 / Figure 3 phenomenon again). *)
  let g = Stabgraph.Graph.chain 4 in
  let p = Stabalgo.Center_leader.make g in
  let space = Statespace.build p in
  let init =
    Array.map
      (fun level -> { Stabalgo.Center_leader.level; flag = false })
      [| 0; 1; 1; 0 |]
  in
  let _, cycle = Checker.synchronous_lasso space ~init:(Statespace.code space init) in
  Alcotest.(check int) "period-2 flag flipping" 2 (List.length cycle)

let test_center_leader_unique_center_terminal () =
  (* Odd chain: unique center, no tie to break; stable levels with any
     flags are terminal with that center as leader. *)
  let g = Stabgraph.Graph.chain 5 in
  let p = Stabalgo.Center_leader.make g in
  let init =
    Array.map
      (fun level -> { Stabalgo.Center_leader.level; flag = false })
      [| 0; 1; 2; 1; 0 |]
  in
  Alcotest.(check bool) "terminal" true (Protocol.is_terminal p init);
  Alcotest.(check (list int)) "leader is the center" [ 2 ]
    (Stabalgo.Center_leader.leaders g init)

(* --- Dijkstra K-state --- *)

let test_dijkstra_self_stabilizing () =
  List.iter
    (fun n ->
      let p = Stabalgo.Dijkstra_kstate.make ~n () in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Central
          (Stabalgo.Dijkstra_kstate.spec ~n)
      in
      Alcotest.(check bool) "closure" true (Result.is_ok v.Checker.closure);
      Alcotest.(check bool) "certain convergence" true (Result.is_ok v.Checker.certain);
      Alcotest.(check bool) "self-stabilizing (central)" true (Checker.self_stabilizing v))
    [ 3; 4 ]

let test_dijkstra_never_deadlocks () =
  let n = 4 in
  let p = Stabalgo.Dijkstra_kstate.make ~n () in
  let enc = Encoding.of_protocol p in
  Encoding.iter enc (fun _ cfg ->
      if Protocol.is_terminal p cfg then Alcotest.fail "terminal configuration found")

let test_dijkstra_legitimate_rotation () =
  (* From the all-zero configuration (single privilege at the root),
     the privilege visits every process. *)
  let n = 4 in
  let p = Stabalgo.Dijkstra_kstate.make ~n () in
  let rng = Stabrng.Rng.create 5 in
  let r =
    Engine.run ~record:true ~max_steps:40 rng p (Scheduler.central_first ())
      ~init:(Array.make n 0)
  in
  let visited = Hashtbl.create 8 in
  List.iter
    (fun e -> List.iter (fun (q, _) -> Hashtbl.replace visited q ()) e.Engine.fired)
    r.Engine.trace.Engine.events;
  Alcotest.(check int) "every process fired" n (Hashtbl.length visited)

let test_dijkstra_validation () =
  Alcotest.check_raises "k too small" (Invalid_argument "Dijkstra_kstate.make: need k >= 2")
    (fun () -> ignore (Stabalgo.Dijkstra_kstate.make ~n:5 ~k:1 ()))

(* --- Herman --- *)

let test_herman_validation () =
  Alcotest.check_raises "even ring" (Invalid_argument "Herman.make: need odd n >= 3")
    (fun () -> ignore (Stabalgo.Herman.make ~n:4))

let test_herman_odd_token_count () =
  (* On an odd ring the number of tokens is always odd. *)
  let n = 5 in
  let p = Stabalgo.Herman.make ~n in
  let enc = Encoding.of_protocol p in
  Encoding.iter enc (fun _ cfg ->
      (* Process q holds a token iff x_q = x_pred. *)
      let holds q = cfg.(q) = cfg.((q + n - 1) mod n) in
      let count = List.length (List.filter holds (List.init n Fun.id)) in
      if count mod 2 = 0 then Alcotest.failf "even token count %d" count)

let test_herman_converges_with_prob_one () =
  let n = 5 in
  let p = Stabalgo.Herman.make ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Herman.spec ~n) in
  let chain = Markov.of_space space Markov.Sync in
  Alcotest.(check bool) "prob-1" true
    (Result.is_ok (Markov.converges_with_prob_one chain ~legitimate));
  (* Closure: a single token stays single. *)
  let g = Checker.expand space Statespace.Synchronous in
  Alcotest.(check bool) "closure" true
    (Result.is_ok (Checker.check_closure space g (Stabalgo.Herman.spec ~n)))

let test_herman_quadratic_growth () =
  (* Expected stabilization time grows superlinearly: compare n=3 and
     n=7 worst-case hitting times. *)
  let hit n =
    let p = Stabalgo.Herman.make ~n in
    let space = Statespace.build p in
    let legitimate = Statespace.legitimate_set space (Stabalgo.Herman.spec ~n) in
    let chain = Markov.of_space space Markov.Sync in
    (Markov.hitting_stats chain ~legitimate).Markov.max
  in
  let h3 = hit 3 and h7 = hit 7 in
  Alcotest.(check bool) "h7 > 3 * h3" true (h7 > 3.0 *. h3)

(* --- Israeli-Jalfon --- *)

let test_ij_converges_from_every_nonempty_mask () =
  let n = 5 in
  let chain = Stabalgo.Israeli_jalfon.chain ~n ~central:true in
  let legitimate = Stabalgo.Israeli_jalfon.legitimate ~n in
  let reach = Markov.reaches chain ~target:legitimate in
  for mask = 1 to (1 lsl n) - 1 do
    if not reach.(mask) then Alcotest.failf "mask %d cannot reach a single token" mask
  done

let test_ij_single_token_closed () =
  let n = 5 in
  let chain = Stabalgo.Israeli_jalfon.chain ~n ~central:true in
  let legitimate = Stabalgo.Israeli_jalfon.legitimate ~n in
  for mask = 0 to (1 lsl n) - 1 do
    if legitimate.(mask) then
      List.iter
        (fun (mask', _) ->
          if not legitimate.(mask') then Alcotest.fail "single token split into more")
        (Markov.row chain mask)
  done

let test_ij_distributed_rows_sum () =
  let n = 4 in
  let chain = Stabalgo.Israeli_jalfon.chain ~n ~central:false in
  for mask = 0 to (1 lsl n) - 1 do
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Markov.row chain mask) in
    if Float.abs (total -. 1.0) > 1e-9 then Alcotest.failf "row %d sums to %f" mask total
  done

let test_ij_montecarlo_matches_exact () =
  let n = 6 in
  let chain = Stabalgo.Israeli_jalfon.chain ~n ~central:true in
  let legitimate = Stabalgo.Israeli_jalfon.legitimate ~n in
  (* The empty mask is absorbing but unreachable from any non-empty
     mask; treat it as a target so hitting times are defined on the
     reachable part. *)
  legitimate.(0) <- true;
  let h = Markov.expected_hitting_times chain ~legitimate in
  let init_tokens = [ 0; 3 ] in
  let mask = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 init_tokens in
  let rng = Stabrng.Rng.create 321 in
  let mc =
    Stabalgo.Israeli_jalfon.sample_convergence ~runs:4000 ~max_steps:100_000 rng ~n
      ~init_tokens
  in
  match mc.Montecarlo.summary with
  | None -> Alcotest.fail "no samples"
  | Some s ->
    let slack = 5.0 *. s.Stabstats.Stats.stderr +. 1e-6 in
    if Float.abs (s.Stabstats.Stats.mean -. h.(mask)) > slack then
      Alcotest.failf "MC %f vs exact %f" s.Stabstats.Stats.mean h.(mask)

let test_ij_validation () =
  Alcotest.check_raises "empty tokens"
    (Invalid_argument "Israeli_jalfon.sample_convergence: no tokens") (fun () ->
      ignore
        (Stabalgo.Israeli_jalfon.sample_convergence ~runs:1 ~max_steps:10
           (Stabrng.Rng.create 0) ~n:5 ~init_tokens:[]))

let suite =
  [
    Alcotest.test_case "centers fixed point" `Slow test_centers_fixed_point_marks_graph_centers;
    Alcotest.test_case "centers self-stabilizing" `Quick test_centers_self_stabilizing_exhaustive;
    Alcotest.test_case "centers desired on path" `Quick test_centers_desired_on_path;
    Alcotest.test_case "centers rejects non-tree" `Quick test_centers_rejects_non_tree;
    Alcotest.test_case "center-leader weak" `Slow test_center_leader_weak_stabilizing;
    Alcotest.test_case "center-leader tie break" `Quick test_center_leader_two_centers_tie_break;
    Alcotest.test_case "center-leader sync oscillation" `Quick test_center_leader_sync_oscillates;
    Alcotest.test_case "center-leader unique center" `Quick test_center_leader_unique_center_terminal;
    Alcotest.test_case "dijkstra self-stabilizing" `Quick test_dijkstra_self_stabilizing;
    Alcotest.test_case "dijkstra never deadlocks" `Quick test_dijkstra_never_deadlocks;
    Alcotest.test_case "dijkstra rotation" `Quick test_dijkstra_legitimate_rotation;
    Alcotest.test_case "dijkstra validation" `Quick test_dijkstra_validation;
    Alcotest.test_case "herman validation" `Quick test_herman_validation;
    Alcotest.test_case "herman odd tokens" `Quick test_herman_odd_token_count;
    Alcotest.test_case "herman prob-1" `Quick test_herman_converges_with_prob_one;
    Alcotest.test_case "herman superlinear" `Quick test_herman_quadratic_growth;
    Alcotest.test_case "IJ converges" `Quick test_ij_converges_from_every_nonempty_mask;
    Alcotest.test_case "IJ single token closed" `Quick test_ij_single_token_closed;
    Alcotest.test_case "IJ distributed rows" `Quick test_ij_distributed_rows_sum;
    Alcotest.test_case "IJ MC vs exact" `Slow test_ij_montecarlo_matches_exact;
    Alcotest.test_case "IJ validation" `Quick test_ij_validation;
  ]

(* --- Dijkstra's three-state machines --- *)

let test_dijkstra3_self_stabilizing_central () =
  List.iter
    (fun n ->
      let p = Stabalgo.Dijkstra_three.make ~n in
      let space = Statespace.build p in
      let v = Checker.analyze space Statespace.Central (Stabalgo.Dijkstra_three.spec ~n) in
      Alcotest.(check bool) "closure" true (Result.is_ok v.Checker.closure);
      Alcotest.(check bool) "self-stabilizing" true (Checker.self_stabilizing v))
    [ 3; 4; 5; 6 ]

let test_dijkstra3_never_deadlocks () =
  let n = 5 in
  let p = Stabalgo.Dijkstra_three.make ~n in
  let enc = Encoding.of_protocol p in
  Encoding.iter enc (fun _ cfg ->
      if Protocol.is_terminal p cfg then Alcotest.fail "privilege-free configuration")

let test_dijkstra3_guards_exclusive () =
  let n = 5 in
  let p = Stabalgo.Dijkstra_three.make ~n in
  let enc = Encoding.of_protocol p in
  Encoding.iter enc (fun _ cfg ->
      if Protocol.exclusive_guards_violation p cfg <> None then
        Alcotest.fail "overlapping guards")

let test_dijkstra3_rotation () =
  (* From a legitimate configuration, every machine is served. *)
  let n = 4 in
  let p = Stabalgo.Dijkstra_three.make ~n in
  let rng = Stabrng.Rng.create 8 in
  (* Stabilize first. *)
  let r0 =
    Engine.run ~record:false ~stop_on:(Stabalgo.Dijkstra_three.spec ~n) ~max_steps:10_000
      rng p (Scheduler.central_random ())
      ~init:(Protocol.random_config rng p)
  in
  Alcotest.(check bool) "stabilized" true (r0.Engine.stop = Engine.Converged);
  let r =
    Engine.run ~record:true ~max_steps:60 rng p (Scheduler.central_random ())
      ~init:r0.Engine.final
  in
  let visited = Hashtbl.create 8 in
  List.iter
    (fun e -> List.iter (fun (q, _) -> Hashtbl.replace visited q ()) e.Engine.fired)
    r.Engine.trace.Engine.events;
  Alcotest.(check int) "every machine fired" n (Hashtbl.length visited)

let test_dijkstra3_three_states_only () =
  let p = Stabalgo.Dijkstra_three.make ~n:6 in
  Alcotest.(check int) "3 states per machine" 3 (List.length (p.Protocol.domain 0))

let dijkstra3_suite =
  [
    Alcotest.test_case "dijkstra3 self central" `Slow test_dijkstra3_self_stabilizing_central;
    Alcotest.test_case "dijkstra3 never deadlocks" `Quick test_dijkstra3_never_deadlocks;
    Alcotest.test_case "dijkstra3 guards exclusive" `Quick test_dijkstra3_guards_exclusive;
    Alcotest.test_case "dijkstra3 rotation" `Quick test_dijkstra3_rotation;
    Alcotest.test_case "dijkstra3 domain" `Quick test_dijkstra3_three_states_only;
  ]

let suite = suite @ dijkstra3_suite
