(* Symmetry-quotient engine tests.

   Three layers: unit tests of the validated group computation (cyclic
   vs dihedral selection, tree group orders, canon idempotence, orbit
   sizes partitioning the space), a differential suite asserting that
   quotient verdicts match full-space verdicts for every fixture
   protocol at every size where both fit, and hitting-time equality of
   the lumped chain against the full chain within 1e-9. *)

open Stabcore
open Stabexp

(* --- group computation --- *)

let order ~name ~topology =
  let (Registry.Entry e) = Registry.find ~name ~topology () in
  let space = Statespace.build e.protocol in
  Statespace.symmetry_order (Statespace.quotient ?relabel:e.relabel space)

let test_token_ring_is_cyclic_only () =
  (* The token ring is oriented (guards read the predecessor), so the
     dihedral candidates must collapse to the rotation subgroup. *)
  Alcotest.(check int) "n=4 rotations" 4 (order ~name:"token-ring" ~topology:"ring:4");
  Alcotest.(check int) "n=5 rotations" 5 (order ~name:"token-ring" ~topology:"ring:5")

let test_coloring_ring_is_dihedral () =
  (* Coloring reads only the multiset of neighbor colors: reflections
     survive validation and the full dihedral group acts. *)
  Alcotest.(check int) "n=4 dihedral" 8 (order ~name:"coloring" ~topology:"ring:4")

let test_tree_group_orders () =
  (* Coloring reads only the multiset of neighbor colors, so it
     carries the whole tree automorphism group: star:4 has Aut = S3
     (the three leaves), chain:4 the end-swap, star:5 Aut = S4. *)
  Alcotest.(check int) "star:4" 6 (order ~name:"coloring" ~topology:"star:4");
  Alcotest.(check int) "chain:4" 2 (order ~name:"coloring" ~topology:"chain:4");
  Alcotest.(check int) "star:5" 24 (order ~name:"coloring" ~topology:"star:5")

let test_leader_tree_is_trivial () =
  (* Algorithm 2 is labeling-dependent: A2 walks the neighborhood by
     local index ((Par_p + 1) mod Delta_p) and A3 takes min over local
     indexes, so a tree automorphism that permutes a vertex's local
     neighbor order does not commute with the protocol even under the
     correct pointer relabel. The validation sweep must therefore
     reject every non-identity candidate — soundness over wishful
     symmetry. *)
  Alcotest.(check int) "star:4 with relabel" 1
    (order ~name:"leader-tree" ~topology:"star:4");
  Alcotest.(check int) "chain:4 with relabel" 1
    (order ~name:"leader-tree" ~topology:"chain:4");
  (* Without the relabel hook the permuted states are not even
     translated; still trivial, for the cruder reason. *)
  let g = Stabgraph.Graph.star 4 in
  let p = Stabalgo.Leader_tree.make g in
  let sym = Symmetry.build p (Encoding.of_protocol p) in
  Alcotest.(check int) "star:4 without relabel" 1 (Symmetry.group_order sym)

let test_trivial_group_returns_same_space () =
  (* dijkstra has a distinguished machine 0: no nontrivial symmetry,
     and the quotient must be the space itself. *)
  let (Registry.Entry e) = Registry.find ~name:"dijkstra" ~topology:"ring:3" () in
  let space = Statespace.build e.protocol in
  let q = Statespace.quotient space in
  Alcotest.(check bool) "same space" true (Statespace.uid q = Statespace.uid space);
  Alcotest.(check bool) "not a quotient" false (Statespace.is_quotient q)

(* Bijective on the token ring's m=3 state domain but does not commute
   with the increment action, so every rotation candidate is rejected
   under it. Top-level so repeated calls share one closure (the memo
   compares hooks by physical identity). *)
let state_reversal ~perm:_ _ s = 2 - s

let test_quotient_memo_keyed_on_relabel () =
  (* The memo must never return a quotient validated under one relabel
     hook to a call that supplies another (or none): the bogus hook
     yields the trivial group, the hookless call the 4 rotations, and
     each order of the two calls must see its own result. *)
  let p = Stabalgo.Token_ring.make ~n:4 in
  let space = Statespace.build p in
  let with_bogus = Statespace.quotient ~relabel:state_reversal space in
  Alcotest.(check bool) "bogus hook validates nothing" false
    (Statespace.is_quotient with_bogus);
  let plain = Statespace.quotient space in
  Alcotest.(check bool) "hookless call is not served the stale full space" true
    (Statespace.is_quotient plain);
  Alcotest.(check int) "rotations validated" 4 (Statespace.symmetry_order plain);
  Alcotest.(check int) "same hook is memoized" (Statespace.uid plain)
    (Statespace.uid (Statespace.quotient space));
  (* Reverse order on a fresh space. *)
  let space2 = Statespace.build p in
  let plain2 = Statespace.quotient space2 in
  Alcotest.(check bool) "nontrivial first" true (Statespace.is_quotient plain2);
  Alcotest.(check bool) "bogus hook is not served the stale quotient" false
    (Statespace.is_quotient (Statespace.quotient ~relabel:state_reversal space2))

(* --- independent oracle for the validated group --- *)

(* Group orders measured before the commutation check moved to digit
   slots; a validator change must reproduce every one of them. *)
let pinned_orders =
  [
    ("token-ring", "ring:8", 8);
    ("coloring", "ring:8", 16);
    ("coloring", "chain:8", 2);
    ("coloring", "star:6", 120);
    ("herman", "ring:9", 9);
    ("centers", "star:6", 120);
    ("mis", "ring:8", 16);
    ("bfs-tree", "star:6", 120);
    ("leader-tree", "star:7", 1);
    ("matching", "ring:6", 1);
    ("dijkstra-3state", "ring:8", 1);
    ("two-bool", "ring:2", 2);
  ]

let test_pinned_group_orders () =
  List.iter
    (fun (name, topology, expected) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let sym = Symmetry.build ?relabel:e.relabel e.protocol (Encoding.of_protocol e.protocol) in
      Alcotest.(check int) (name ^ "@" ^ topology) expected (Symmetry.group_order sym))
    pinned_orders

(* The node permutation of element [i], read off its code action alone:
   the code whose only non-zero digit is [p]'s differs from code 0's
   image exactly at the digit of [sigma p]. *)
let perm_of enc sym i =
  let n = Encoding.processes enc in
  let base = Encoding.decode enc (Symmetry.apply sym i 0) in
  Array.init n (fun p ->
      if Encoding.domain_size enc p < 2 then Alcotest.fail "oracle needs domains of size >= 2";
      let img = Encoding.decode enc (Symmetry.apply sym i (Encoding.weight enc p)) in
      match List.filter (fun q -> img.(q) <> base.(q)) (List.init n Fun.id) with
      | [ q ] -> q
      | _ -> Alcotest.failf "element %d does not move one digit per process" i)

(* A process's singleton step as (code, weight) pairs, merged and sorted
   by code, rebuilt from [Protocol.step_outcomes] and [Encoding.encode]
   alone; [None] when the process is disabled. *)
let singleton_dist (proto : 'a Protocol.t) enc cfg p ~map =
  if not (Protocol.is_enabled proto cfg p) then None
  else
    Some
      (Protocol.step_outcomes proto cfg [ p ]
      |> List.map (fun (cfg', w) -> (map (Encoding.encode enc cfg'), w))
      |> List.sort compare)

(* Every element of the validated group, not only its generators,
   commutes with every singleton step: the distribution of [p] at [c],
   carried through the element's code action, is the distribution of
   [sigma p] at the image of [c]. Shares no code with the validator. *)
let test_oracle_commutation () =
  List.iter
    (fun (name, topology) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let proto = e.protocol in
      let enc = Encoding.of_protocol proto in
      let sym = Symmetry.build ?relabel:e.relabel proto enc in
      if Symmetry.is_trivial sym then Alcotest.failf "%s@%s: trivial group" name topology;
      for i = 0 to Symmetry.group_order sym - 1 do
        let perm = perm_of enc sym i in
        for c = 0 to Encoding.count enc - 1 do
          let cfg = Encoding.decode enc c in
          let c' = Symmetry.apply sym i c in
          let cfg' = Encoding.decode enc c' in
          Array.iteri
            (fun p q ->
              let ok =
                match
                  ( singleton_dist proto enc cfg p ~map:(Symmetry.apply sym i),
                    singleton_dist proto enc cfg' q ~map:Fun.id )
                with
                | None, None -> true
                | Some d, Some d' ->
                  List.length d = List.length d'
                  && List.for_all2
                       (fun (x, w) (x', w') -> x = x' && Float.abs (w -. w') <= 1e-9)
                       d d'
                | _ -> false
              in
              if not ok then
                Alcotest.failf "%s@%s: element %d breaks process %d at code %d" name
                  topology i p c)
            perm
        done
      done)
    [
      ("token-ring", "ring:6");
      ("coloring", "ring:6");
      ("coloring", "chain:5");
      ("coloring", "star:5");
      ("herman", "ring:7");
      ("centers", "star:5");
      ("mis", "ring:6");
      ("bfs-tree", "star:4");
      ("two-bool", "ring:2");
    ]

(* A token ring whose process-0 guard is negated at exactly one
   configuration: every rotation and reflection then fails at that
   configuration or at its preimage, so only the identity survives.
   Codes 0 and the last code are the two ends of the validator's walk
   (all digits 0, all digits maximal); both are fixed by every rotation. *)
let test_one_configuration_mutant () =
  let n = 6 in
  let proto = Stabalgo.Token_ring.make ~n in
  let enc = Encoding.of_protocol proto in
  List.iter
    (fun code ->
      let target = Encoding.decode enc code in
      let actions =
        List.map
          (fun (a : int Protocol.action) ->
            let guard cfg p =
              let g = a.guard cfg p in
              if p = 0 && cfg = target then not g else g
            in
            { a with guard })
          proto.actions
      in
      let sym = Symmetry.build { proto with actions } enc in
      Alcotest.(check int) (Printf.sprintf "mutant at code %d" code) 1
        (Symmetry.group_order sym))
    [ 0; Encoding.count enc - 1 ];
  Alcotest.(check int) "unmutated ring" n (Symmetry.group_order (Symmetry.build proto enc))

(* The protocol is evaluated at most once per configuration, whatever
   the number of candidates: coloring star:5 has 24 of them. *)
let test_guard_calls_bounded () =
  List.iter
    (fun (name, topology) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let calls = ref 0 in
      let actions =
        List.map
          (fun (a : _ Protocol.action) ->
            {
              a with
              guard =
                (fun cfg p ->
                  incr calls;
                  a.guard cfg p);
            })
          e.protocol.actions
      in
      let proto = { e.protocol with actions } in
      let enc = Encoding.of_protocol proto in
      let sym = Symmetry.build ?relabel:e.relabel proto enc in
      if Symmetry.is_trivial sym then Alcotest.failf "%s@%s: trivial group" name topology;
      let bound = Encoding.count enc * Encoding.processes enc * List.length actions in
      if !calls > bound then
        Alcotest.failf "%s@%s: %d guard calls > %d" name topology !calls bound)
    [ ("coloring", "star:5"); ("token-ring", "ring:8") ]

(* --- canonicalization --- *)

let test_canon_idempotent_and_partitions () =
  let p = Stabalgo.Token_ring.make ~n:5 in
  let enc = Encoding.of_protocol p in
  let sym = Symmetry.build p enc in
  let covered = ref 0 in
  for c = 0 to Encoding.count enc - 1 do
    let r = Symmetry.canon sym c in
    Alcotest.(check int) "canon is idempotent" r (Symmetry.canon sym r);
    Alcotest.(check bool) "representative is minimal" true (r <= c);
    if r = c then covered := !covered + Symmetry.orbit_size sym c
  done;
  Alcotest.(check int) "orbit sizes partition the space" (Encoding.count enc) !covered

let test_orbit_sizes_sum_to_base_count () =
  List.iter
    (fun (name, topology) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let space = Statespace.build e.protocol in
      let q = Statespace.quotient ?relabel:e.relabel space in
      match Statespace.orbit_sizes q with
      | None -> Alcotest.failf "%s@%s: expected a nontrivial quotient" name topology
      | Some sizes ->
        Alcotest.(check int)
          (Printf.sprintf "%s@%s sizes sum" name topology)
          (Statespace.count space)
          (Array.fold_left ( + ) 0 sizes))
    [
      ("token-ring", "ring:5");
      ("coloring", "star:4");
      ("coloring", "chain:5");
      ("coloring", "ring:4");
      ("herman", "ring:5");
    ]

(* --- differential: quotient vs full-space verdicts --- *)

(* Fixture instances: token rings at every N from the overlap of the
   exact sweeps so the extended E1 ceiling is backed by verdict
   agreement at all shared sizes. The boolean asserts the validated
   group is nontrivial; labeling-dependent protocols (leader-tree,
   matching, two-bool) legitimately quotient to the full space and
   still exercise the dispatch path. *)
let differential_specs =
  [
    ("token-ring", "ring:3", true);
    ("token-ring", "ring:4", true);
    ("token-ring", "ring:5", true);
    ("token-ring", "ring:6", true);
    ("token-ring", "ring:7", true);
    ("leader-tree", "chain:3", false);
    ("leader-tree", "chain:4", false);
    ("leader-tree", "chain:5", false);
    ("leader-tree", "star:4", false);
    ("leader-tree", "star:5", false);
    ("two-bool", "ring:3", false);
    ("coloring", "ring:4", true);
    ("coloring", "star:4", true);
    ("coloring", "chain:5", true);
    ("matching", "chain:4", false);
    ("mis", "ring:4", true);
    ("herman", "ring:5", true);
  ]

let classes = [ Statespace.Central; Statespace.Distributed; Statespace.Synchronous ]

let check_same_verdict label (full : Checker.verdict) (quot : Checker.verdict) =
  let ok = function Ok () -> true | Error _ -> false in
  let some = function Some _ -> true | None -> false in
  Alcotest.(check bool) (label ^ " closure") (ok full.Checker.closure) (ok quot.Checker.closure);
  Alcotest.(check bool) (label ^ " possible") (ok full.Checker.possible) (ok quot.Checker.possible);
  Alcotest.(check bool) (label ^ " certain") (ok full.Checker.certain) (ok quot.Checker.certain);
  Alcotest.(check bool)
    (label ^ " strong fairness")
    (some (Lazy.force full.Checker.strongly_fair_diverges))
    (some (Lazy.force quot.Checker.strongly_fair_diverges));
  Alcotest.(check bool)
    (label ^ " weak fairness")
    (some (Lazy.force full.Checker.weakly_fair_diverges))
    (some (Lazy.force quot.Checker.weakly_fair_diverges));
  Alcotest.(check bool)
    (label ^ " dead ends")
    (full.Checker.dead_ends = [])
    (quot.Checker.dead_ends = [])

let test_differential_verdicts () =
  List.iter
    (fun (name, topology, nontrivial) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let space = Statespace.build e.protocol in
      let quot = Statespace.quotient ?relabel:e.relabel space in
      if nontrivial && not (Statespace.is_quotient quot) then
        Alcotest.failf "%s@%s: expected a nontrivial quotient" name topology;
      List.iter
        (fun cls ->
          let label =
            Format.asprintf "%s@%s/%a" name topology Statespace.pp_sched_class cls
          in
          let full_v = Checker.analyze space cls e.spec in
          let quot_v = Checker.analyze quot cls e.spec in
          check_same_verdict label full_v quot_v;
          (* Taxonomy entry points share the quotient soundness
             argument; compare their boolean outcomes too. *)
          let g_full = Checker.expand space cls in
          let g_quot = Checker.expand quot cls in
          let leg_full = Statespace.legitimate_set space e.spec in
          let leg_quot = Statespace.legitimate_set quot e.spec in
          let ok = function Ok () -> true | Error _ -> false in
          Alcotest.(check bool) (label ^ " pseudo")
            (ok (Checker.pseudo_stabilizing space g_full ~legitimate:leg_full))
            (ok (Checker.pseudo_stabilizing quot g_quot ~legitimate:leg_quot));
          Alcotest.(check bool) (label ^ " k=1")
            (ok (Checker.k_stabilizing space g_full ~legitimate:leg_full ~k:1))
            (ok (Checker.k_stabilizing quot g_quot ~legitimate:leg_quot ~k:1));
          (* Per-process fairness is not orbit-invariant, so the
             standalone fairness entry points route a quotient to its
             base space; on these fixtures the base IS [space], so the
             witnesses must come out identical, not just co-present. *)
          let same_fairness tag f =
            Alcotest.(check (option (list int)))
              tag
              (f space g_full ~legitimate:leg_full)
              (f quot g_quot ~legitimate:leg_quot)
          in
          same_fairness (label ^ " strong fairness witness")
            Checker.strongly_fair_divergence;
          same_fairness (label ^ " weak fairness witness")
            Checker.weakly_fair_divergence)
        classes)
    differential_specs

(* --- hitting-time statistics of the lumped chain --- *)

let test_differential_hitting_stats () =
  List.iter
    (fun (name, topology) ->
      let (Registry.Entry e) = Registry.find ~name ~topology () in
      let space = Statespace.build e.protocol in
      let quot = Statespace.quotient ?relabel:e.relabel space in
      List.iter
        (fun randomization ->
          let label =
            Printf.sprintf "%s@%s/%s" name topology
              (match randomization with
              | Markov.Central_uniform -> "central"
              | Markov.Distributed_uniform -> "distributed"
              | Markov.Sync -> "sync")
          in
          let full_chain = Markov.of_space space randomization in
          let quot_chain = Markov.of_space quot randomization in
          let leg_full = Statespace.legitimate_set space e.spec in
          let leg_quot = Statespace.legitimate_set quot e.spec in
          let full_converges =
            Result.is_ok (Markov.converges_with_prob_one full_chain ~legitimate:leg_full)
          in
          let quot_converges =
            Result.is_ok (Markov.converges_with_prob_one quot_chain ~legitimate:leg_quot)
          in
          Alcotest.(check bool)
            (label ^ " prob-1 convergence")
            full_converges quot_converges;
          if full_converges then begin
            let full =
              Markov.hitting_stats ~method_:Markov.Exact full_chain ~legitimate:leg_full
            in
            let quot_stats =
              Markov.hitting_stats ~method_:Markov.Exact
                ?weights:(Statespace.orbit_sizes quot) quot_chain ~legitimate:leg_quot
            in
            Alcotest.(check (float 1e-9)) (label ^ " mean") full.Markov.mean
              quot_stats.Markov.mean;
            Alcotest.(check (float 1e-9)) (label ^ " max") full.Markov.max
              quot_stats.Markov.max
          end)
        [ Markov.Central_uniform; Markov.Distributed_uniform ])
    [
      ("token-ring", "ring:3");
      ("token-ring", "ring:4");
      ("token-ring", "ring:5");
      ("token-ring", "ring:6");
      ("token-ring", "ring:7");
      ("coloring", "chain:4");
      ("coloring", "star:4");
      ("coloring", "ring:4");
    ]

(* Paranoid mode re-derives the lumpability condition and the spec's
   orbit-invariance from the full space; it must pass silently on a
   sound quotient. *)
let test_paranoid_lumpability_audit () =
  Symmetry.set_paranoid true;
  Fun.protect ~finally:(fun () -> Symmetry.set_paranoid false) @@ fun () ->
  let (Registry.Entry e) = Registry.find ~name:"token-ring" ~topology:"ring:5" () in
  let space = Statespace.build e.protocol in
  let quot = Statespace.quotient ?relabel:e.relabel space in
  let legitimate = Statespace.legitimate_set quot e.spec in
  let chain = Markov.of_space quot Markov.Central_uniform in
  let stats =
    Markov.hitting_stats ?weights:(Statespace.orbit_sizes quot) chain ~legitimate
  in
  Alcotest.(check bool) "positive mean" true (stats.Markov.mean > 0.0)

(* --- satellite: one solve behind mean/max --- *)

let test_hitting_stats_single_solve () =
  let p = Stabalgo.Token_ring.make ~n:4 in
  let space = Statespace.build p in
  let legitimate = Statespace.legitimate_set space (Stabalgo.Token_ring.spec ~n:4) in
  let chain = Markov.of_space space Markov.Central_uniform in
  let stats = Markov.hitting_stats chain ~legitimate in
  Alcotest.(check (float 1e-12)) "mean agrees with mean_hitting_time"
    (Markov.mean_hitting_time chain ~legitimate)
    stats.Markov.mean;
  Alcotest.(check (float 1e-12)) "max agrees with max_hitting_time"
    (Markov.max_hitting_time chain ~legitimate)
    stats.Markov.max;
  let weighted =
    Markov.hitting_stats ~weights:(Array.make (Markov.states chain) 3) chain ~legitimate
  in
  Alcotest.(check (float 1e-12)) "uniform weights keep the mean" stats.Markov.mean
    weighted.Markov.mean

let suite =
  [
    Alcotest.test_case "token ring validates cyclic only" `Quick
      test_token_ring_is_cyclic_only;
    Alcotest.test_case "coloring ring validates dihedral" `Quick
      test_coloring_ring_is_dihedral;
    Alcotest.test_case "tree automorphism group orders" `Quick test_tree_group_orders;
    Alcotest.test_case "labeling-dependent protocols stay trivial" `Quick
      test_leader_tree_is_trivial;
    Alcotest.test_case "trivial group quotient is the space" `Quick
      test_trivial_group_returns_same_space;
    Alcotest.test_case "quotient memo keyed on relabel hook" `Quick
      test_quotient_memo_keyed_on_relabel;
    Alcotest.test_case "pinned group orders" `Quick test_pinned_group_orders;
    Alcotest.test_case "oracle: every element commutes" `Quick test_oracle_commutation;
    Alcotest.test_case "one-configuration mutant keeps identity only" `Quick
      test_one_configuration_mutant;
    Alcotest.test_case "guard calls bounded by configurations" `Quick
      test_guard_calls_bounded;
    Alcotest.test_case "canon idempotent, orbits partition" `Quick
      test_canon_idempotent_and_partitions;
    Alcotest.test_case "orbit sizes sum to base count" `Quick
      test_orbit_sizes_sum_to_base_count;
    Alcotest.test_case "quotient verdicts match full space" `Slow
      test_differential_verdicts;
    Alcotest.test_case "lumped hitting stats match full chain" `Slow
      test_differential_hitting_stats;
    Alcotest.test_case "paranoid lumpability audit passes" `Quick
      test_paranoid_lumpability_audit;
    Alcotest.test_case "hitting stats from one solve" `Quick
      test_hitting_stats_single_solve;
  ]
