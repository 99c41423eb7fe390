(* Tests for the Markov-chain analysis: construction, BSCCs,
   probability-1 convergence and expected hitting times (validated
   against hand-computed chains). *)

open Stabcore

let check_float = Alcotest.(check (float 1e-7))

(* Theorem 7's third view, which the tests hold the probability-1
   check to: the bottom strongly connected components of the chain's
   graph (no edge leaving), members ascending. *)
let bsccs chain =
  let g = Markov.graph chain in
  let comps = Digraph.sccs g in
  let component = Array.make g.Digraph.n (-1) in
  List.iteri (fun i members -> Array.iter (fun c -> component.(c) <- i) members) comps;
  List.filteri
    (fun i members ->
      Array.for_all
        (fun c -> not (Digraph.exists_succ g c (fun c' -> component.(c') <> i)))
        members)
    comps
  |> List.map Array.to_list

let rows_sum_to_one chain =
  let n = Markov.states chain in
  let ok = ref true in
  for c = 0 to n - 1 do
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 (Markov.row chain c) in
    if Float.abs (total -. 1.0) > 1e-9 then ok := false
  done;
  !ok

let test_of_rows_validation () =
  Alcotest.check_raises "out of range" (Invalid_argument "Markov.of_rows: target out of range")
    (fun () -> ignore (Markov.of_rows [| [ (5, 1.0) ] |]));
  Alcotest.check_raises "bad sum" (Invalid_argument "Markov.of_rows: row does not sum to 1")
    (fun () -> ignore (Markov.of_rows [| [ (0, 0.5) ] |]));
  (* NaN compares false both ways, so a [w <= 0.0] test and the sum
     check would both let it through. *)
  List.iter
    (fun (name, row) ->
      Alcotest.check_raises name
        (Invalid_argument "Markov.of_rows: weight not finite and positive")
        (fun () -> ignore (Markov.of_rows [| row; [] |])))
    [
      ("non-positive", [ (0, 0.0); (0, 1.0) ]);
      ("nan", [ (0, Float.nan) ]);
      ("nan beside 0.5", [ (0, 0.5); (1, Float.nan) ]);
      ("infinite", [ (0, Float.infinity) ]);
    ]

let test_of_rows_merges_and_absorbs () =
  let chain = Markov.of_rows [| [ (1, 0.5); (1, 0.5) ]; [] |] in
  Alcotest.(check (list (pair int (float 1e-9)))) "merged" [ (1, 1.0) ] (Markov.row chain 0);
  Alcotest.(check (list (pair int (float 1e-9)))) "absorbing" [ (1, 1.0) ] (Markov.row chain 1)

let test_of_space_rows_sum () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  let space = Statespace.build p in
  List.iter
    (fun r -> Alcotest.(check bool) "rows sum to 1" true (rows_sum_to_one (Markov.of_space space r)))
    [ Markov.Central_uniform; Markov.Distributed_uniform; Markov.Sync ]

let test_terminal_states_absorbing () =
  let p = Stabalgo.Two_bool.make () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Central_uniform in
  (* (true, true) is terminal; find its code. *)
  let code = Statespace.code space [| true; true |] in
  Alcotest.(check (list (pair int (float 1e-9)))) "absorbing" [ (code, 1.0) ]
    (Markov.row chain code)

let test_central_uniform_probabilities () =
  (* mod3 config (1,1): both processes enabled; central uniform gives
     each successor probability 1/2. *)
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Central_uniform in
  let code = Statespace.code space [| 1; 1 |] in
  let row = Markov.row chain code in
  Alcotest.(check int) "two successors" 2 (List.length row);
  List.iter (fun (_, w) -> check_float "half each" 0.5 w) row

let test_distributed_uniform_probabilities () =
  (* mod3 (1,1): three subsets, so successors (2,1), (1,2), (2,2) each
     with probability 1/3. *)
  let p = Fixtures.mod3_protocol () in
  let space = Statespace.build p in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let code = Statespace.code space [| 1; 1 |] in
  let row = Markov.row chain code in
  Alcotest.(check int) "three successors" 3 (List.length row);
  List.iter (fun (_, w) -> check_float "third each" (1.0 /. 3.0) w) row

(* Hand-built gambler's-ruin chain: states 0..3, 3 absorbing target,
   0 reflecting: expected hitting of 3 from i is known. *)
let gambler () =
  Markov.of_rows
    [|
      [ (1, 1.0) ];
      [ (0, 0.5); (2, 0.5) ];
      [ (1, 0.5); (3, 0.5) ];
      [ (3, 1.0) ];
    |]

let test_gambler_hitting_times () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  let h = Markov.expected_hitting_times chain ~legitimate in
  (* Solve by hand: h0 = 1 + h1; h1 = 1 + (h0 + h2)/2; h2 = 1 + h1/2.
     => h0 = 9, h1 = 8, h2 = 5. *)
  check_float "h0" 9.0 h.(0);
  check_float "h1" 8.0 h.(1);
  check_float "h2" 5.0 h.(2);
  check_float "h3" 0.0 h.(3)

let test_gambler_exact_vs_iterative () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  let exact = Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate in
  let iter =
    Markov.expected_hitting_times
      ~method_:
        (Markov.Sparse
           { kind = Markov.Gauss_seidel; tolerance = 1e-12; max_sweeps = 1_000_000 })
      chain ~legitimate
  in
  Array.iteri (fun i e -> check_float "methods agree" e iter.(i)) exact;
  List.iter
    (fun kind ->
      let sparse =
        Markov.expected_hitting_times
          ~method_:(Markov.Sparse { kind; tolerance = 1e-12; max_sweeps = 1_000_000 })
          chain ~legitimate
      in
      Array.iteri (fun i e -> check_float "sparse agrees" e sparse.(i)) exact)
    [ Markov.Gauss_seidel; Markov.Jacobi ]

let test_hitting_requires_convergence () =
  (* Two absorbing states, only one legitimate: state 0 never reaches it. *)
  let chain = Markov.of_rows [| [ (0, 1.0) ]; [ (1, 1.0) ] |] in
  Alcotest.check_raises "diverging state"
    (Invalid_argument "Markov.expected_hitting_times: state 0 cannot reach the legitimate set")
    (fun () ->
      ignore (Markov.expected_hitting_times chain ~legitimate:[| false; true |]));
  match Markov.hitting_stats_result chain ~legitimate:[| false; true |] with
  | Error 0 -> ()
  | Error c -> Alcotest.failf "hitting_stats_result names state %d, not 0" c
  | Ok _ -> Alcotest.fail "hitting_stats_result solved a chain without prob-1 convergence"

(* A Markov question through the analysis ladder decides probability-1
   convergence once: one [markov.prob1] span per answer, whose hitting
   times equal the ones [hitting_stats_checked] gives. *)
let test_one_prob1_pass () =
  let n = 6 in
  let instance = Analysis.instance (Stabalgo.Token_ring.make ~n) (Stabalgo.Token_ring.spec ~n) in
  let profile = Stabobs.Obs.Profile.create () in
  Stabobs.Obs.install (Stabobs.Obs.Profile.sink profile);
  let answer =
    Fun.protect ~finally:Stabobs.Obs.clear (fun () ->
        Analysis.chain (Analysis.request instance Statespace.Distributed))
  in
  let passes =
    List.fold_left
      (fun k (r : Stabobs.Obs.Profile.row) ->
        if r.Stabobs.Obs.Profile.name = "markov.prob1" then k + r.Stabobs.Obs.Profile.count
        else k)
      0
      (Stabobs.Obs.Profile.rows profile)
  in
  Alcotest.(check int) "prob-1 passes" 1 passes;
  match answer with
  | Ok (space, Ok (stats, _)) ->
    let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
    let chain = Markov.of_space space Markov.Distributed_uniform in
    let checked, _ = Markov.hitting_stats_checked chain ~legitimate in
    Alcotest.(check (array int64)) "hitting times"
      (Array.map Int64.bits_of_float checked.Markov.times)
      (Array.map Int64.bits_of_float stats.Markov.times)
  | Ok (_, Error c) -> Alcotest.failf "state %d cannot reach L" c
  | Error msg -> Alcotest.fail msg

(* The weak-stabilizing pipeline on one graph and one L: the verdicts
   with both fairness fields forced, the chain, its probability-1 check
   and Gauss-Seidel hitting times. The kernel's remembered
   decomposition of C \ L serves possible convergence, both fairness
   checks, the check and the solve, so exactly one SCC traversal runs,
   and it is the pass over C \ L. A fresh space keys a fresh graph, so
   no earlier answer is remembered. *)
let test_one_scc_pass_per_pipeline () =
  let n = 6 in
  let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
  let spec = Stabalgo.Token_ring.spec ~n in
  let value = Stabobs.Obs.Counter.value in
  let builds, passes, (v, prob1, outcome) =
    Test_differential.counting @@ fun () ->
    let builds0 = value Stabobs.Obs.checker_scc_builds
    and passes0 = value Stabobs.Obs.checker_reaches_passes in
    let v = Checker.analyze space Statespace.Distributed spec in
    ignore (Lazy.force v.Checker.strongly_fair_diverges);
    ignore (Lazy.force v.Checker.weakly_fair_diverges);
    let chain = Markov.of_space space Markov.Distributed_uniform in
    let legitimate = Statespace.legitimate_set space spec in
    let prob1 = Markov.converges_with_prob_one chain ~legitimate in
    let _, outcome = Markov.sparse_hitting_times chain ~legitimate in
    ( value Stabobs.Obs.checker_scc_builds - builds0,
      value Stabobs.Obs.checker_reaches_passes - passes0,
      (v, prob1, outcome) )
  in
  Alcotest.(check bool) "weak-stabilizing" true (Checker.weak_stabilizing v);
  Alcotest.(check bool) "not self-stabilizing" false (Checker.self_stabilizing v);
  Alcotest.(check bool) "prob-1" true (Result.is_ok prob1);
  (match outcome with
  | Markov.Converged _ -> ()
  | Markov.Max_sweeps _ -> Alcotest.fail "Gauss-Seidel did not converge");
  Alcotest.(check int) "SCC traversals" 1 builds;
  Alcotest.(check int) "passes over C \\ L" 1 passes

let test_bsccs () =
  (* 0 -> 1 -> 2 <-> 3 (cycle), 4 absorbing, 1 -> 4. *)
  let chain =
    Markov.of_rows
      [|
        [ (1, 1.0) ];
        [ (2, 0.5); (4, 0.5) ];
        [ (3, 1.0) ];
        [ (2, 1.0) ];
        [ (4, 1.0) ];
      |]
  in
  let bs = List.sort compare (bsccs chain) in
  Alcotest.(check (list (list int))) "two bottom components" [ [ 2; 3 ]; [ 4 ] ] bs

let test_reaches () =
  let chain = Markov.of_rows [| [ (1, 1.0) ]; [ (1, 1.0) ]; [ (2, 1.0) ] |] in
  let r = Markov.reaches chain ~target:[| false; true; false |] in
  Alcotest.(check (array bool)) "backward reachability" [| true; true; false |] r

let test_converges_with_prob_one () =
  let good = gambler () in
  Alcotest.(check bool) "gambler converges" true
    (Result.is_ok (Markov.converges_with_prob_one good ~legitimate:[| false; false; false; true |]));
  let bad = Markov.of_rows [| [ (0, 1.0) ]; [ (1, 1.0) ] |] in
  match Markov.converges_with_prob_one bad ~legitimate:[| false; true |] with
  | Error 0 -> ()
  | _ -> Alcotest.fail "state 0 should fail"

let test_convergence_iff_bsccs_legitimate () =
  (* Cross-validation on a real protocol: probability-1 convergence
     holds iff every BSCC intersects L (Theorem 7's chain view). *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let via_reach = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate) in
  let via_bscc =
    List.for_all (List.exists (fun c -> legitimate.(c))) (bsccs chain)
  in
  Alcotest.(check bool) "reachability and BSCC views agree" true (via_reach = via_bscc);
  Alcotest.(check bool) "token ring converges w.p.1" true via_reach

let test_mean_max_hitting () =
  let chain = gambler () in
  let legitimate = [| false; false; false; true |] in
  let stats = Markov.hitting_stats chain ~legitimate in
  check_float "mean" ((9.0 +. 8.0 +. 5.0 +. 0.0) /. 4.0) stats.Markov.mean;
  check_float "max" 9.0 stats.Markov.max

let test_hitting_times_match_simulation () =
  (* Token ring n=4 under central uniform: compare exact hitting time
     from a fixed configuration against Monte-Carlo. *)
  let n = 4 in
  let p = Stabalgo.Token_ring.make ~n in
  let spec = Stabalgo.Token_ring.spec ~n in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space Markov.Central_uniform in
  let h = Markov.expected_hitting_times chain ~legitimate in
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 2 ] in
  let code = Statespace.code space init in
  let rng = Stabrng.Rng.create 2024 in
  let mc =
    Montecarlo.estimate ~init:(fun _ -> init) ~runs:4000 ~max_steps:100_000 rng p
      Scheduler.central_random spec
  in
  match mc.Montecarlo.summary with
  | None -> Alcotest.fail "no converged runs"
  | Some s ->
    let exact = h.(code) in
    (* 4000 runs: allow 5 standard errors. *)
    let slack = 5.0 *. s.Stabstats.Stats.stderr +. 1e-6 in
    if Float.abs (s.Stabstats.Stats.mean -. exact) > slack then
      Alcotest.failf "MC mean %f vs exact %f (slack %f)" s.Stabstats.Stats.mean exact slack

(* The merge's reference: equal targets summed left to right in
   arrival order, then sorted by target; an empty row is an absorbing
   self-loop. Weights are compared bit for bit. The second result
   counts the repeated targets merged, so a caller can insist that a
   summation order was actually exercised. *)
let arrival_merge c entries =
  match entries with
  | [] -> ([ (c, 1.0) ], 0)
  | _ ->
    let sums = Hashtbl.create 16 and repeats = ref 0 in
    List.iter
      (fun (t, w) ->
        match Hashtbl.find_opt sums t with
        | Some sum ->
          incr repeats;
          Hashtbl.replace sums t (sum +. w)
        | None -> Hashtbl.replace sums t w)
      entries;
    ( List.sort compare (Hashtbl.fold (fun t w acc -> (t, w) :: acc) sums []),
      !repeats )

let bits row = List.map (fun (t, w) -> (t, Int64.bits_of_float w)) row

(* Every row of [chain] against the reference merge of [arrivals c];
   returns the number of repeated targets merged. *)
let check_rows label chain arrivals =
  let repeats = ref 0 in
  for c = 0 to Markov.states chain - 1 do
    let expected, r = arrival_merge c (arrivals c) in
    repeats := !repeats + r;
    Alcotest.(check (list (pair int int64)))
      (Printf.sprintf "%s row %d" label c)
      (bits expected)
      (bits (Markov.row chain c))
  done;
  !repeats

(* Random rows over few targets, so most rows repeat some, with
   unequal weights normalized to sum to 1; some rows are empty, and
   the last chain has one row over 4096 entries. *)
let random_rows rng ~n ~long =
  Array.init n (fun c ->
      let len =
        if long && c = 0 then 5000
        else if Random.State.int rng 5 = 0 then 0
        else 1 + Random.State.int rng 30
      in
      let span = 1 + Random.State.int rng (min n 6) in
      let raw =
        List.init len (fun _ -> (Random.State.int rng span, 0.01 +. Random.State.float rng 1.0))
      in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 raw in
      List.map (fun (t, w) -> (t, w /. total)) raw)

(* Every row layout merges as the reference does: [of_rows]' own merge,
   and the chain's merge of the checker's [Edges] rows, randomized,
   quotient, central and synchronous. *)
let test_rows_are_arrival_merge () =
  let rng = Random.State.make [| 2024 |] in
  let repeats = ref 0 in
  for trial = 0 to 20 do
    let long = trial = 20 in
    let rows = random_rows rng ~n:(if long then 300 else 1 + Random.State.int rng 40) ~long in
    let chain = Markov.of_rows rows in
    repeats := !repeats + check_rows (Printf.sprintf "of_rows %d" trial) chain (Array.get rows)
  done;
  Alcotest.(check bool) "random rows repeat targets" true (!repeats > 0);
  let of_space label space cls randomization =
    let g = Checker.expand space cls in
    check_rows label (Markov.of_space space randomization) (Checker.weighted_row g)
  in
  (* Herman's coin flips can land a process on its old value, so under
     the distributed daemon several subsets reach the same target with
     unequal weights. *)
  let herman = Statespace.build (Stabalgo.Herman.make ~n:7) in
  ignore (of_space "herman sync" herman Statespace.Synchronous Markov.Sync);
  Alcotest.(check bool) "herman rows repeat targets" true
    (of_space "herman distributed" herman Statespace.Distributed Markov.Distributed_uniform
    > 0);
  let quotient = Statespace.quotient (Statespace.build (Stabalgo.Token_ring.make ~n:10)) in
  Alcotest.(check bool) "quotient rows repeat targets" true
    (of_space "ring:10 quotient" quotient Statespace.Distributed Markov.Distributed_uniform
    > 0);
  let central_and_sync name space =
    ignore (of_space (name ^ " central") space Statespace.Central Markov.Central_uniform);
    ignore (of_space (name ^ " sync") space Statespace.Synchronous Markov.Sync)
  in
  for n = 3 to 6 do
    central_and_sync
      (Printf.sprintf "token-ring ring:%d" n)
      (Statespace.build (Stabalgo.Token_ring.make ~n));
    central_and_sync
      (Printf.sprintf "dijkstra-3state ring:%d" n)
      (Statespace.build (Stabalgo.Dijkstra_three.make ~n))
  done

(* {1 Chains against their [of_rows] twins}

   A chain keeps only the checker's graph and merges its rows on
   demand: the [Subsets] graph of a deterministic full space under the
   distributed class, and the [Edges] graph of a quotient, of the
   central or synchronous class, or of a randomized protocol. Its twin
   is [Markov.of_rows] over [Checker.weighted_row], the same steps
   merged once by [of_rows]' own stable sort. Every row, every solve
   and every graph answer must agree bit for bit (weights and times as
   [Int64.bits_of_float]). *)

let randomization = function
  | Statespace.Central -> Markov.Central_uniform
  | Statespace.Distributed -> Markov.Distributed_uniform
  | Statespace.Synchronous -> Markov.Sync

let class_name = function
  | Statespace.Central -> "central"
  | Statespace.Distributed -> "distributed"
  | Statespace.Synchronous -> "sync"

(* Whether [chain] kept the checker's graph of [space] under [cls]
   itself, offsets and all, rather than a copy. *)
let keeps_graph space cls chain =
  (Markov.graph chain).Digraph.off == (Checker.successors (Checker.expand space cls)).Digraph.off

let twin space cls =
  let g = Checker.expand space cls in
  Markov.of_rows (Array.init (Statespace.count space) (Checker.weighted_row g))

(* The zero deltas of a [Subsets] graph: steps that rewrite a digit to
   itself, which give the 2^z - 1 self-loop. *)
let zero_deltas space =
  let fwd = Checker.successors (Checker.expand space Statespace.Distributed) in
  match fwd.Digraph.rows with
  | Digraph.Edges _ -> 0
  | Digraph.Subsets deltas ->
    let zeros = ref 0 in
    for i = 0 to fwd.Digraph.off.(fwd.Digraph.n) - 1 do
      if Digraph.target deltas i = 0 then incr zeros
    done;
    !zeros

let bit_array a = Array.map Int64.bits_of_float a

let check_solve label (x, outcome) (x', outcome') =
  Alcotest.(check (array int64)) label (bit_array x') (bit_array x);
  if outcome <> outcome' then Alcotest.failf "%s: solver outcomes differ" label

(* [target] is a second, arbitrary set, so absorption is not all ones.
   Returns the number of rows that merged repeated targets: fewer
   entries than the 2^k - 1 subsets of a [Subsets] row or the k steps
   of an [Edges] row. *)
let check_twins label space cls ~legitimate ~target =
  let chain = Markov.of_space space (randomization cls) in
  if not (keeps_graph space cls chain) then
    Alcotest.failf "%s: chain is not the checker's graph" label;
  let twin = twin space cls in
  let n = Markov.states twin in
  Alcotest.(check int) (label ^ " states") n (Markov.states chain);
  let fwd = Checker.successors (Checker.expand space cls) in
  let steps c =
    let k = Digraph.out_degree fwd c in
    match fwd.Digraph.rows with Digraph.Subsets _ -> (1 lsl k) - 1 | Digraph.Edges _ -> k
  in
  let merged = ref 0 in
  for c = 0 to n - 1 do
    let row = Markov.row chain c in
    Alcotest.(check (list (pair int int64)))
      (Printf.sprintf "%s row %d" label c)
      (bits (Markov.row twin c))
      (bits row);
    if List.length row < steps c then incr merged
  done;
  let sets = List.sort compare in
  Alcotest.(check (list (list int))) (label ^ " bsccs") (sets (bsccs twin))
    (sets (bsccs chain));
  let blocks c ~transient =
    sets (List.map Array.to_list (Digraph.sccs ~keep:(Array.get transient) (Markov.graph c)))
  in
  let transient = Array.map not legitimate in
  Alcotest.(check (list (list int))) (label ^ " blocks") (blocks twin ~transient)
    (blocks chain ~transient);
  Alcotest.(check (array bool)) (label ^ " reaches") (Markov.reaches twin ~target)
    (Markov.reaches chain ~target);
  let count set = Array.fold_left (fun k b -> if b then k + 1 else k) 0 set in
  let sparse kind = Markov.Sparse { kind; tolerance = 1e-10; max_sweeps = 100_000 } in
  let kinds = [ ("gs", Markov.Gauss_seidel); ("jacobi", Markov.Jacobi) ] in
  (match Markov.converges_with_prob_one twin ~legitimate with
  | Error c ->
    if Markov.converges_with_prob_one chain ~legitimate <> Error c then
      Alcotest.failf "%s: prob-1 verdicts differ" label
  | Ok () ->
    if Markov.converges_with_prob_one chain ~legitimate <> Ok () then
      Alcotest.failf "%s: prob-1 verdicts differ" label;
    List.iter
      (fun (name, kind) ->
        check_solve
          (Printf.sprintf "%s hitting %s" label name)
          (Markov.hitting_times_checked ~method_:(sparse kind) twin ~legitimate)
          (Markov.hitting_times_checked ~method_:(sparse kind) chain ~legitimate))
      kinds;
    if count transient <= Markov.dense_limit then
      check_solve (label ^ " hitting exact")
        (Markov.hitting_times_checked ~method_:Markov.Exact twin ~legitimate)
        (Markov.hitting_times_checked ~method_:Markov.Exact chain ~legitimate));
  List.iter
    (fun (name, kind) ->
      let absorption c =
        bit_array
          (Markov.absorption_probabilities
             ~method_:(Markov.Sparse { kind; tolerance = 1e-12; max_sweeps = 1_000_000 })
             c ~legitimate:target)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "%s absorption %s" label name)
        (absorption twin) (absorption chain))
    kinds;
  if count (Markov.reaches twin ~target) <= Markov.dense_limit then
    Alcotest.(check (array int64)) (label ^ " absorption exact")
      (bit_array (Markov.absorption_probabilities ~method_:Markov.Exact twin ~legitimate:target))
      (bit_array (Markov.absorption_probabilities ~method_:Markov.Exact chain ~legitimate:target));
  !merged

let arbitrary_set seed n =
  let rng = Random.State.make [| seed |] in
  let set = Array.init n (fun _ -> Random.State.int rng 5 = 0) in
  set.(Random.State.int rng n) <- true;
  set

(* Registry instances under [cls], quotiented when asked; returns the
   rows that merged repeated targets. *)
let check_registry ?(quotient = false) cls families =
  List.fold_left
    (fun merged (name, topologies) ->
      List.fold_left
        (fun merged topology ->
          let (Stabexp.Registry.Entry e) = Stabexp.Registry.find ~name ~topology () in
          let space = Statespace.build e.protocol in
          let space = if quotient then Statespace.quotient ?relabel:e.relabel space else space in
          if quotient && not (Statespace.is_quotient space) then
            Alcotest.failf "%s %s: no quotient" name topology;
          merged
          + check_twins
              (Printf.sprintf "%s %s %s%s" name topology (class_name cls)
                 (if quotient then " quotient" else ""))
              space cls
              ~legitimate:(Statespace.legitimate_set space e.spec)
              ~target:
                (arbitrary_set
                   (Scanf.sscanf topology "%_[a-z]:%d" Fun.id)
                   (Statespace.count space)))
        merged topologies)
    0 families

let rings = List.map (Printf.sprintf "ring:%d")

let test_factored_is_packed_twin () =
  ignore
    (check_registry Statespace.Distributed
       [
         ("token-ring", rings [ 3; 4; 5; 6; 7; 8 ]);
         ("dijkstra-3state", rings [ 3; 4; 5; 6; 7; 8 ]);
         ("coloring", rings [ 4; 5; 6; 7 ]);
       ]);
  (* Canonicalized targets meet: several subsets of a quotient row land
     in one orbit. *)
  let merged =
    check_registry ~quotient:true Statespace.Distributed
      [
        ("token-ring", rings [ 6; 7; 8; 9; 10; 15 ]);
        ("coloring", rings [ 5; 6; 7 ] @ [ "star:4"; "star:5" ]);
      ]
  in
  if merged = 0 then Alcotest.fail "no quotient row merged repeated targets";
  List.iter
    (fun cls ->
      ignore
        (check_registry cls
           [
             ("token-ring", rings [ 3; 4; 5; 6; 7; 8 ]);
             ("dijkstra-3state", rings [ 3; 4; 5; 6; 7; 8 ]);
           ]))
    [ Statespace.Central; Statespace.Synchronous ];
  (* Herman's randomized rows: unequal outcome weights, and under the
     distributed class several subsets' coin flips meet on one
     target. *)
  let merged =
    List.fold_left
      (fun merged cls -> merged + check_registry cls [ ("herman", rings [ 5; 7; 9 ]) ])
      0
      [ Statespace.Distributed; Statespace.Central; Statespace.Synchronous ]
  in
  if merged = 0 then Alcotest.fail "no herman row merged repeated targets";
  (* Lazy random protocols keep some digits, so their [Subsets] rows
     carry zero deltas and the 2^z - 1 self-loop, and their central
     rows repeat the self-loop once per lazy process; their targets are
     arbitrary, so some chains fail prob-1 and only absorption is
     compared. *)
  let zeros = ref 0 and merged = ref 0 in
  for seed = 0 to 29 do
    let p = Test_random_systems.lazy_protocol (Test_random_systems.random_protocol (seed + 80_000)) in
    let space = Statespace.build p in
    zeros := !zeros + zero_deltas space;
    List.iter
      (fun cls ->
        let m =
          check_twins
            (Printf.sprintf "%s %s" p.Protocol.name (class_name cls))
            space cls
            ~legitimate:(Test_random_systems.random_target seed space)
            ~target:(arbitrary_set seed (Statespace.count space))
        in
        if cls = Statespace.Central then merged := !merged + m)
      [ Statespace.Distributed; Statespace.Central; Statespace.Synchronous ]
  done;
  if !zeros = 0 then Alcotest.fail "no lazy protocol stepped a process to its own state";
  if !merged = 0 then Alcotest.fail "no lazy central row merged repeated targets"

(* The twin's bytes: its heap arrays plus 4 B per int32 target
   outside the heap. *)
let twin_bytes twin =
  float_of_int
    ((Obj.reachable_words (Obj.repr twin) * (Sys.word_size / 8))
    + (4 * Digraph.edge_count (Markov.graph twin)))

(* Memory gates. Herman's ring of 11 under the synchronous class (2048
   configurations, 177,148 chain entries), its expansion cached first:
   [of_space] keeps the checker's graph, so it allocates (minor and
   major, [Gc.allocated_bytes]) under 1 % of the twin's bytes, and the
   sparse solvers merge each block's rows into scratch allocated once
   per solve and box nothing per entry, so a full solve allocates at
   most 2 minor words per chain entry. *)
let test_randomized_allocation () =
  let n = 11 in
  let space = Statespace.build (Stabalgo.Herman.make ~n) in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Herman.spec ~n) in
  let twin = twin_bytes (twin space Statespace.Synchronous) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let chain = Markov.of_space space Markov.Sync in
  let allocated = Gc.allocated_bytes () -. before in
  if not (keeps_graph space Statespace.Synchronous chain) then
    Alcotest.fail "the herman ring:11 chain must be the checker's graph";
  if allocated > 0.01 *. twin then
    Alcotest.failf "of_space allocated %.0f B; the twin is %.0f B (> 1 %%)" allocated twin;
  let entries = float_of_int (Digraph.edge_count (Markov.graph chain)) in
  List.iter
    (fun (name, kind) ->
      let before = Gc.minor_words () in
      (match Markov.sparse_hitting_times ~kind chain ~legitimate with
      | _, Markov.Converged _ -> ()
      | _, Markov.Max_sweeps _ -> Alcotest.failf "%s did not converge" name);
      let per_entry = (Gc.minor_words () -. before) /. entries in
      if per_entry > 2.0 then
        Alcotest.failf "%s allocated %.2f minor words per chain entry (> 2)" name per_entry)
    [ ("Gauss-Seidel", Markov.Gauss_seidel); ("Jacobi", Markov.Jacobi) ]

(* Herman's ring of 9 under the distributed class stores 1,952,614
   entries, which merge to 262,144 (512 targets in each of 512 rows).
   The solve's block scratch is sized by merged entries, at most one
   per state in a row, so [of_space] and a Gauss-Seidel solve together
   allocate (minor and major, [Gc.allocated_bytes]) under the bytes of
   the twin, which holds the merged rows once; scratch sized by the
   stored entries would be about seven times as large. *)
let test_randomized_block_scratch () =
  let n = 9 in
  let space = Statespace.build (Stabalgo.Herman.make ~n) in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Herman.spec ~n) in
  let twin = twin_bytes (twin space Statespace.Distributed) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  (match Markov.sparse_hitting_times ~kind:Markov.Gauss_seidel chain ~legitimate with
  | _, Markov.Converged _ -> ()
  | _, Markov.Max_sweeps _ -> Alcotest.fail "Gauss-Seidel did not converge");
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > twin then
    Alcotest.failf "of_space and a solve allocated %.0f B; the twin is %.0f B" allocated twin

(* The token-ring ring:10 quotient (5934 orbit states): with its
   expansion cached, [of_space] keeps the checker's [Edges] graph and
   allocates (minor and major, [Gc.allocated_bytes]) under 1 % of the
   bytes of the twin. *)
let test_quotient_of_space_allocation () =
  let space = Statespace.quotient (Statespace.build (Stabalgo.Token_ring.make ~n:10)) in
  let twin = twin_bytes (twin space Statespace.Distributed) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let allocated = Gc.allocated_bytes () -. before in
  if not (keeps_graph space Statespace.Distributed chain) then
    Alcotest.fail "the ring:10 quotient chain must be the checker's graph";
  if allocated > 0.01 *. twin then
    Alcotest.failf "of_space allocated %.0f B; the twin is %.0f B (> 1 %%)" allocated twin

(* Token-ring ring:8 (6561 configurations, 384,063 merged entries,
   4.6 MB as a twin): [of_space] keeps the checker's graph, and a
   Gauss-Seidel solve merges one block's rows at a time into scratch
   sized for the largest block (31,752 entries). Together they allocate
   (minor and major, [Gc.allocated_bytes]) under half the bytes of the
   twin. The block scratch's int32 targets, 4 B per entry of the
   largest block, live outside the heap and are not counted. The minor
   heap is emptied first, so that promoting the twin's rows is not
   counted either. *)
let test_factored_allocation () =
  let n = 8 in
  let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let twin = twin_bytes (twin space Statespace.Distributed) in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  (match Markov.sparse_hitting_times ~kind:Markov.Gauss_seidel chain ~legitimate with
  | _, Markov.Converged _ -> ()
  | _, Markov.Max_sweeps _ -> Alcotest.fail "Gauss-Seidel did not converge");
  let allocated = Gc.allocated_bytes () -. before in
  if not (keeps_graph space Statespace.Distributed chain) then
    Alcotest.fail "token-ring ring:8 must be the checker's graph";
  if allocated > 0.5 *. twin then
    Alcotest.failf "of_space and a solve allocated %.0f B; the twin is %.0f B (> 1/2)"
      allocated twin

(* {1 The blocked exact solve against the whole-matrix elimination}

   [Exact] eliminates one strongly connected block of the transient
   part at a time, each row's out-of-block mass folded into its
   constant. [Dense_reference] eliminates the whole transient part at
   once. Hitting times (where probability-1 convergence holds) and
   absorption into a second, arbitrary set must agree within 1e-12
   relative. *)

let close a b = a = b || Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

(* Returns the number of multi-state transient blocks the chain's two
   systems had, so a caller can insist that elimination inside a block
   was exercised. *)
let check_blocked_exact label space cls ~legitimate ~target =
  let chain = Markov.of_space space (randomization cls) in
  let compare what ~transient expected actual =
    let t = Array.fold_left (fun k b -> if b then k + 1 else k) 0 transient in
    if t > Markov.dense_limit then
      Alcotest.failf "%s %s: %d transient states, above the dense limit" label what t;
    Array.iteri
      (fun c e ->
        if not (close e actual.(c)) then
          Alcotest.failf "%s %s: state %d blocked %h, whole-matrix %h" label what c
            actual.(c) e)
      expected;
    List.length
      (List.filter
         (fun b -> Array.length b > 1)
         (Digraph.sccs ~keep:(Array.get transient) (Markov.graph chain)))
  in
  let hitting =
    match Markov.converges_with_prob_one chain ~legitimate with
    | Error _ -> 0
    | Ok () ->
      compare "hitting" ~transient:(Array.map not legitimate)
        (Dense_reference.hitting_times chain ~legitimate)
        (Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate)
  in
  let reach = Markov.reaches chain ~target in
  hitting
  + compare "absorption"
      ~transient:(Array.mapi (fun c r -> r && not target.(c)) reach)
      (Dense_reference.absorption chain ~legitimate:target)
      (Markov.absorption_probabilities ~method_:Markov.Exact chain ~legitimate:target)

let test_blocked_exact_is_whole_matrix () =
  let blocks = ref 0 in
  let classes = [ Statespace.Distributed; Statespace.Central; Statespace.Synchronous ] in
  for seed = 0 to 29 do
    let p = Test_random_systems.lazy_protocol (Test_random_systems.random_protocol (seed + 80_000)) in
    let space = Statespace.build p in
    List.iter
      (fun cls ->
        blocks :=
          !blocks
          + check_blocked_exact
              (Printf.sprintf "%s %s" p.Protocol.name (class_name cls))
              space cls
              ~legitimate:(Test_random_systems.random_target seed space)
              ~target:(arbitrary_set seed (Statespace.count space)))
      classes
  done;
  let token_ring ~quotient n cls =
    let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
    let space = if quotient then Statespace.quotient space else space in
    blocks :=
      !blocks
      + check_blocked_exact
          (Printf.sprintf "token-ring ring:%d %s%s" n (class_name cls)
             (if quotient then " quotient" else ""))
          space cls
          ~legitimate:(Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n))
          ~target:(arbitrary_set n (Statespace.count space))
  in
  List.iter (fun n -> List.iter (token_ring ~quotient:false n) classes) [ 3; 4; 5 ];
  List.iter (fun n -> token_ring ~quotient:true n Statespace.Distributed) [ 6; 7; 8 ];
  if !blocks = 0 then Alcotest.fail "no multi-state transient block was eliminated"

(* Dijkstra's three-state ring is self-stabilizing, so every transient
   block is a single state, which both methods settle with the same
   one division: exact and Gauss-Seidel hitting times and absorption
   agree bit for bit, and Gauss-Seidel sweeps nothing. *)
let test_singleton_blocks_exact_is_gs () =
  let gs = Markov.Sparse { kind = Markov.Gauss_seidel; tolerance = 1e-10; max_sweeps = 100 } in
  for n = 3 to 8 do
    let space = Statespace.build (Stabalgo.Dijkstra_three.make ~n) in
    let legitimate = Statespace.legitimate_set space (Stabalgo.Dijkstra_three.spec ~n) in
    List.iter
      (fun cls ->
        let label = Printf.sprintf "dijkstra-3state ring:%d %s" n (class_name cls) in
        let chain = Markov.of_space space (randomization cls) in
        let exact, _ = Markov.hitting_times_checked ~method_:Markov.Exact chain ~legitimate in
        (match Markov.hitting_times_checked ~method_:gs chain ~legitimate with
        | times, Some (Markov.Converged { sweeps = 0; _ }) ->
          Alcotest.(check (array int64)) (label ^ " hitting") (bit_array times) (bit_array exact)
        | _ -> Alcotest.failf "%s: Gauss-Seidel swept a block" label);
        Alcotest.(check (array int64)) (label ^ " absorption")
          (bit_array (Markov.absorption_probabilities ~method_:gs chain ~legitimate))
          (bit_array (Markov.absorption_probabilities ~method_:Markov.Exact chain ~legitimate)))
      [ Statespace.Distributed; Statespace.Central; Statespace.Synchronous ]
  done

(* Token-ring ring:8 (6,537 transient states, the largest block 840):
   the exact solve holds one block's b x b matrix at a time, so the
   peak heap grows by under 48 MB (24.2 MB measured); one 6,537 x 6,537
   matrix and its copy would take about 684 MB. *)
let test_exact_solve_memory () =
  let n = 8 in
  let space = Statespace.build (Stabalgo.Token_ring.make ~n) in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n) in
  let chain = Markov.of_space space Markov.Distributed_uniform in
  let top () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) in
  let before = top () in
  ignore (Markov.expected_hitting_times ~method_:Markov.Exact chain ~legitimate);
  let grown = top () -. before in
  if grown >= 48e6 then Alcotest.failf "the exact solve grew the peak heap by %.1f MB" (grown /. 1e6)

let suite =
  [
    Alcotest.test_case "of_rows validation" `Quick test_of_rows_validation;
    Alcotest.test_case "of_rows merge/absorb" `Quick test_of_rows_merges_and_absorbs;
    Alcotest.test_case "rows = arrival-order merge, bit for bit" `Quick
      test_rows_are_arrival_merge;
    Alcotest.test_case "factored chain = packed twin, bit for bit" `Quick
      test_factored_is_packed_twin;
    Alcotest.test_case "randomized chain allocation" `Quick test_randomized_allocation;
    Alcotest.test_case "randomized block scratch under twin" `Quick
      test_randomized_block_scratch;
    Alcotest.test_case "factored chain and solve allocation" `Quick test_factored_allocation;
    Alcotest.test_case "quotient of_space allocation" `Quick test_quotient_of_space_allocation;
    Alcotest.test_case "of_space rows sum" `Quick test_of_space_rows_sum;
    Alcotest.test_case "terminal absorbing" `Quick test_terminal_states_absorbing;
    Alcotest.test_case "central uniform probs" `Quick test_central_uniform_probabilities;
    Alcotest.test_case "distributed uniform probs" `Quick test_distributed_uniform_probabilities;
    Alcotest.test_case "gambler hitting times" `Quick test_gambler_hitting_times;
    Alcotest.test_case "exact vs iterative" `Quick test_gambler_exact_vs_iterative;
    Alcotest.test_case "hitting needs convergence" `Quick test_hitting_requires_convergence;
    Alcotest.test_case "one prob-1 pass per question" `Quick test_one_prob1_pass;
    Alcotest.test_case "one SCC pass per weak pipeline" `Quick test_one_scc_pass_per_pipeline;
    Alcotest.test_case "bsccs" `Quick test_bsccs;
    Alcotest.test_case "reaches" `Quick test_reaches;
    Alcotest.test_case "prob-1 convergence" `Quick test_converges_with_prob_one;
    Alcotest.test_case "convergence iff BSCCs legit" `Quick test_convergence_iff_bsccs_legitimate;
    Alcotest.test_case "mean/max hitting" `Quick test_mean_max_hitting;
    Alcotest.test_case "hitting vs simulation" `Slow test_hitting_times_match_simulation;
    Alcotest.test_case "blocked exact = whole-matrix elimination" `Quick
      test_blocked_exact_is_whole_matrix;
    Alcotest.test_case "singleton blocks: exact = Gauss-Seidel, bit for bit" `Quick
      test_singleton_blocks_exact_is_gs;
    Alcotest.test_case "exact solve memory" `Quick test_exact_solve_memory;
  ]
