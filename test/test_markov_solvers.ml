(* Differential tests for the sparse Markov backends.

   Every (instance, scheduler class) pair of the differential
   portfolio is solved for hitting times (when probability-1
   convergence holds) and absorption probabilities with the dense
   Gaussian-elimination oracle and with both sparse iterative
   backends; the three must agree to 1e-8 with identical convergence
   verdicts. Unit tests pin the typed Max_sweeps outcome, the
   reverse-topological block order, and the singleton fast path. *)

open Stabcore

let class_tag = function
  | Statespace.Central -> "central"
  | Statespace.Distributed -> "distributed"
  | Statespace.Synchronous -> "synchronous"

let max_abs_diff a b =
  let worst = ref 0.0 in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.(i)))) a;
  !worst

let converged tag = function
  | x, Markov.Converged _ -> x
  | _, Markov.Max_sweeps (s : Markov.solve_stats) ->
    Alcotest.failf "%s: Max_sweeps after %d sweeps (%d blocks)" tag s.Markov.sweeps
      s.Markov.blocks

(* Dense vs Gauss-Seidel vs Jacobi on the full differential portfolio:
   hitting times wherever probability-1 convergence holds, absorption
   probabilities everywhere. *)
let test_differential_backends () =
  List.iter
    (fun (tag, Stabexp.Registry.Entry e) ->
      let space = Statespace.build e.protocol in
      let legitimate = Statespace.legitimate_set space e.spec in
      List.iter
        (fun cls ->
          let tag = Printf.sprintf "%s/%s" tag (class_tag cls) in
          let chain = Markov.of_space space (Analysis.randomization cls) in
          (match Markov.converges_with_prob_one chain ~legitimate with
          | Ok () ->
            let dense = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
            let gs =
              converged (tag ^ "/hitting/gs")
                (Markov.sparse_hitting_times ~kind:Markov.Gauss_seidel ~tolerance:1e-12 chain
                   ~legitimate)
            in
            let jacobi =
              converged (tag ^ "/hitting/jacobi")
                (Markov.sparse_hitting_times ~kind:Markov.Jacobi ~tolerance:1e-12 chain
                   ~legitimate)
            in
            let dgs = max_abs_diff dense gs in
            let djac = max_abs_diff dense jacobi in
            if dgs > 1e-8 then
              Alcotest.failf "%s: dense vs gs hitting drift %g" tag dgs;
            if djac > 1e-8 then
              Alcotest.failf "%s: dense vs jacobi hitting drift %g" tag djac
          | Error _ -> ());
          let dense =
            Markov.absorption_probabilities ~method_:Markov.Exact chain ~legitimate
          in
          let gs =
            converged (tag ^ "/absorption/gs")
              (Markov.sparse_absorption ~kind:Markov.Gauss_seidel chain ~legitimate)
          in
          let jacobi =
            converged (tag ^ "/absorption/jacobi")
              (Markov.sparse_absorption ~kind:Markov.Jacobi chain ~legitimate)
          in
          let dgs = max_abs_diff dense gs in
          let djac = max_abs_diff dense jacobi in
          if dgs > 1e-8 then Alcotest.failf "%s: dense vs gs absorption drift %g" tag dgs;
          if djac > 1e-8 then
            Alcotest.failf "%s: dense vs jacobi absorption drift %g" tag djac)
        Test_differential.classes)
    (Test_differential.instances ())

(* An exhausted sweep budget is a value, not an exception, and leaves
   residual = infinity so no caller can mistake the partial iterate
   for a solution. *)
let test_max_sweeps_outcome () =
  let chain = Test_markov.gambler () in
  let legitimate = [| false; false; false; true |] in
  match
    Markov.sparse_hitting_times ~tolerance:1e-30 ~max_sweeps:2 chain ~legitimate
  with
  | _, Markov.Converged _ -> Alcotest.fail "expected Max_sweeps"
  | _, Markov.Max_sweeps s ->
    Alcotest.(check bool) "residual is infinite" true (s.Markov.residual = infinity);
    Alcotest.(check bool) "some sweeps ran" true (s.Markov.sweeps >= 1)

let test_expected_hitting_reports_failure () =
  let chain = Test_markov.gambler () in
  let legitimate = [| false; false; false; true |] in
  match
    Markov.expected_hitting_times
      ~method_:(Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-30; max_sweeps = 2 })
      chain ~legitimate
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    if
      not
        (String.length msg > 0
        && String.sub msg 0 (String.length "Markov.sparse_hitting_times")
           = "Markov.sparse_hitting_times")
    then Alcotest.failf "failure names the wrong function: %s" msg

(* The blocks of the transient subgraph partition it and come out in
   reverse topological order: every positive-probability edge leaving
   a block lands in an earlier block or outside the transient set. *)
let test_block_ordering () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"token-ring" ~topology:"ring:4" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let transient = Array.map not legitimate in
  let blocks = Markov.transient_blocks chain ~transient in
  let n = Markov.states chain in
  let block_of = Array.make n (-1) in
  List.iteri
    (fun i members ->
      Array.iter
        (fun c ->
          if not transient.(c) then Alcotest.failf "state %d in a block but not transient" c;
          if block_of.(c) >= 0 then Alcotest.failf "state %d in two blocks" c;
          block_of.(c) <- i)
        members)
    blocks;
  Array.iteri
    (fun c t -> if t && block_of.(c) < 0 then Alcotest.failf "transient %d unblocked" c)
    transient;
  List.iteri
    (fun i members ->
      Array.iter
        (fun c ->
          List.iter
            (fun (c', w) ->
              if w > 0.0 && transient.(c') && block_of.(c') > i then
                Alcotest.failf "edge %d->%d climbs from block %d to %d" c c' i
                  block_of.(c'))
            (Markov.row chain c))
        members)
    blocks

(* A self-stabilizing protocol's transient graph is acyclic: every
   block is a singleton, solved exactly with zero iterative sweeps. *)
let test_singleton_blocks_exact () =
  let (Stabexp.Registry.Entry e) =
    Stabexp.Registry.find ~name:"dijkstra-3state" ~topology:"ring:4" ()
  in
  let space = Statespace.build e.protocol in
  let legitimate = Statespace.legitimate_set space e.spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  let times, outcome = Markov.sparse_hitting_times chain ~legitimate in
  (match outcome with
  | Markov.Converged s ->
    Alcotest.(check int) "no iterative sweeps" 0 s.Markov.sweeps;
    Alcotest.(check bool) "all blocks singletons" true (s.Markov.blocks > 0)
  | Markov.Max_sweeps _ -> Alcotest.fail "acyclic chain failed to converge");
  let dense = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
  let drift = max_abs_diff dense times in
  if drift > 1e-9 then Alcotest.failf "back-substitution drift %g" drift

let suite =
  [
    Alcotest.test_case "dense vs gs vs jacobi (portfolio)" `Quick
      test_differential_backends;
    Alcotest.test_case "Max_sweeps outcome" `Quick test_max_sweeps_outcome;
    Alcotest.test_case "non-convergence failure message" `Quick
      test_expected_hitting_reports_failure;
    Alcotest.test_case "block ordering" `Quick test_block_ordering;
    Alcotest.test_case "singleton blocks exact" `Quick test_singleton_blocks_exact;
  ]
