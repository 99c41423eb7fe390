(* Aggregated test entry point: one alcotest suite per module. *)

let () =
  Alcotest.run "stabilization"
    [
      ("rng", Test_rng.suite);
      ("graph", Test_graph.suite);
      ("bitset", Test_bitset.suite);
      ("digraph", Test_digraph.suite);
      ("matrix", Test_matrix.suite);
      ("stats", Test_stats.suite);
      ("encoding", Test_encoding.suite);
      ("protocol", Test_protocol.suite);
      ("engine", Test_engine.suite);
      ("statespace", Test_statespace.suite);
      ("checker", Test_checker.suite);
      ("differential", Test_differential.suite);
      ("symmetry", Test_symmetry.suite);
      ("markov", Test_markov.suite);
      ("markov-solvers", Test_markov_solvers.suite);
      ("transformer", Test_transformer.suite);
      ("fairness", Test_fairness.suite);
      ("compose", Test_compose.suite);
      ("metrics", Test_metrics.suite);
      ("token-ring", Test_token_ring.suite);
      ("leader-tree", Test_leader_tree.suite);
      ("algorithms", Test_algorithms.suite);
      ("conflict", Test_conflict.suite);
      ("random-systems", Test_random_systems.suite);
      ("taxonomy", Test_taxonomy.suite);
      ("onthefly", Test_onthefly.suite);
      ("analysis", Test_analysis.suite);
      ("faults", Test_faults.suite);
      ("campaign", Test_campaign.suite);
      ("resilience", Test_resilience.suite);
      ("structures", Test_structures.suite);
      ("pool", Test_pool.suite);
      ("obs", Test_obs.suite);
      ("flight", Test_flight.suite);
      ("status", Test_status.suite);
      ("sigflush", Test_sigflush.suite);
      ("benchcmp", Test_benchcmp.suite);
      ("gcp", Test_gcp.suite);
      ("experiments", Test_experiments.suite);
      ("integration", Test_integration.suite);
    ]
