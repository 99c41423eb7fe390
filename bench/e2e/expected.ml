(* Pinned answers behind the benchmark's [failed] count.

   Every exact instance the workloads run has its answer written down
   here; a request whose answer differs counts as failed, it is never
   just timed. Values that depend on the seed (random trees, sampled
   runs) are not pinned; [Workload] checks the facts every seed shares. *)

module Json = Stabobs.Json

type verdict = { weak : bool; self : bool; strongly_fair : bool; weakly_fair : bool }

(* Dijkstra's three-state ring is self-stabilizing under the
   distributed daemon (Definition 1). *)
let dijkstra3 = { weak = true; self = true; strongly_fair = true; weakly_fair = true }

(* Algorithm 1 is weak-stabilizing but not self-stabilizing (Theorem 2). *)
let token_ring = { weak = true; self = false; strongly_fair = false; weakly_fair = false }

let rel_tolerance = 1e-8

let close ~expected actual =
  Float.abs (actual -. expected) <= rel_tolerance *. Float.max 1. (Float.abs expected)

(* Bound on ||x - 1 - P x||_inf over the transient rows. *)
let residual_bound = 1e-8

let missing what = failwith ("Expected: no pinned answer for " ^ what)

(* Longest execution outside L under the distributed daemon. *)
let dijkstra3_worst_case = function
  | 5 -> 22
  | 10 -> 137
  | n -> missing (Printf.sprintf "dijkstra-3state ring:%d" n)

(* (mean, max) expected steps to L under the distributed randomized
   daemon, from a uniformly random configuration of the full space. *)
let token_ring_hitting = function
  | 6 -> (11.555806368993299, 14.536965181451261)
  | 7 -> (3.9780453323017979, 6.)
  | 8 -> (16.281339770066513, 24.)
  | 10 -> (25.848582640737991, 37.5)
  | 15 -> (20.916774137569899, 29.166666666666668)
  | n -> missing (Printf.sprintf "token-ring ring:%d" n)

(* Payloads of the campaign's exact cells, by cell label. *)
let campaign_cells =
  [
    ("token-ring(ring:4)/central/check", {|{"configs":81,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:4)/central/markov", {|{"prob1":true,"configs":81,"mean":2.6296296296296298,"max":4.0}|});
    ("token-ring(ring:4)/distributed/check", {|{"configs":81,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:4)/distributed/markov", {|{"prob1":true,"configs":81,"mean":3.5476190476190488,"max":5.9999999999999991}|});
    ("token-ring(ring:5)/central/check", {|{"configs":32,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:5)/central/markov", {|{"prob1":true,"configs":32,"mean":1.4874999999999994,"max":2.8000000000000003}|});
    ("token-ring(ring:5)/distributed/check", {|{"configs":32,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:5)/distributed/markov", {|{"prob1":true,"configs":32,"mean":1.6979166666666661,"max":2.8000000000000003}|});
    ("coloring(ring:4)/central/check", {|{"configs":81,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("coloring(ring:4)/central/markov", {|{"prob1":true,"configs":81,"mean":1.1851851851851853,"max":2.666666666666667}|});
    ("coloring(ring:4)/distributed/check", {|{"configs":81,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("coloring(ring:4)/distributed/markov", {|{"prob1":true,"configs":81,"mean":1.1857632746992361,"max":2.6048025030605353}|});
    ("coloring(ring:5)/central/check", {|{"configs":243,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("coloring(ring:5)/central/markov", {|{"prob1":true,"configs":243,"mean":1.4814814814814818,"max":3.3333333333333353}|});
    ("coloring(ring:5)/distributed/check", {|{"configs":243,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("coloring(ring:5)/distributed/markov", {|{"prob1":true,"configs":243,"mean":1.5783403238283336,"max":3.1395026808666167}|});
    ("two-bool(ring:2)/central/check", {|{"configs":4,"weak":false,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:6)/central/check", {|{"configs":4096,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:6)/central/markov", {|{"prob1":true,"configs":4096,"mean":9.0518329315590034,"max":11.717948716681246}|});
    ("token-ring(ring:6)/distributed/check", {|{"configs":4096,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:6)/distributed/markov", {|{"prob1":true,"configs":4096,"mean":11.555806368993299,"max":14.536965181451261}|});
    ("token-ring(ring:7)/central/check", {|{"configs":128,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:7)/central/markov", {|{"prob1":true,"configs":128,"mean":3.6416552197802208,"max":5.4505494505494507}|});
    ("token-ring(ring:7)/distributed/check", {|{"configs":128,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:7)/distributed/markov", {|{"prob1":true,"configs":128,"mean":3.9780453323017979,"max":6.0000000000000018}|});
    ("token-ring(ring:8)/central/check", {|{"configs":6561,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:8)/central/markov", {|{"prob1":true,"configs":6561,"mean":13.235901480282184,"max":15.999999994691699}|});
    ("token-ring(ring:8)/distributed/check", {|{"configs":6561,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("token-ring(ring:8)/distributed/markov", {|{"prob1":true,"configs":6561,"mean":16.281339770066513,"max":23.999999974300771}|});
    ("dijkstra-3state(ring:4)/central/check", {|{"configs":81,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:4)/central/markov", {|{"prob1":true,"configs":81,"mean":1.1611368312757202,"max":3.307291666666667}|});
    ("dijkstra-3state(ring:4)/distributed/check", {|{"configs":81,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:4)/distributed/markov", {|{"prob1":true,"configs":81,"mean":0.93238095929323284,"max":2.4691358024691361}|});
    ("dijkstra-3state(ring:5)/central/check", {|{"configs":243,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:5)/central/markov", {|{"prob1":true,"configs":243,"mean":2.500169717882573,"max":5.7682888611973731}|});
    ("dijkstra-3state(ring:5)/distributed/check", {|{"configs":243,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:5)/distributed/markov", {|{"prob1":true,"configs":243,"mean":1.8252918526537736,"max":3.913488729679532}|});
    ("dijkstra-3state(ring:6)/central/check", {|{"configs":729,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:6)/central/markov", {|{"prob1":true,"configs":729,"mean":3.9837692212120328,"max":8.0314254520220842}|});
    ("dijkstra-3state(ring:6)/distributed/check", {|{"configs":729,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:6)/distributed/markov", {|{"prob1":true,"configs":729,"mean":2.7107721370144988,"max":5.4572298984399152}|});
    ("dijkstra-3state(ring:7)/central/check", {|{"configs":2187,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:7)/central/markov", {|{"prob1":true,"configs":2187,"mean":5.5744270295666274,"max":10.239202171150037}|});
    ("dijkstra-3state(ring:7)/distributed/check", {|{"configs":2187,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:7)/distributed/markov", {|{"prob1":true,"configs":2187,"mean":3.5876743165797778,"max":6.6181077393985435}|});
    ("dijkstra-3state(ring:8)/central/check", {|{"configs":6561,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:8)/central/markov", {|{"prob1":true,"configs":6561,"mean":7.2582288497457945,"max":12.522697282799072}|});
    ("dijkstra-3state(ring:8)/distributed/check", {|{"configs":6561,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("dijkstra-3state(ring:8)/distributed/markov", {|{"prob1":true,"configs":6561,"mean":4.4583743790690038,"max":7.9267453969162931}|});
    ("coloring(ring:6)/central/check", {|{"configs":729,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("coloring(ring:6)/central/markov", {|{"prob1":true,"configs":729,"mean":1.7777777777777777,"max":4.0}|});
    ("coloring(ring:6)/distributed/check", {|{"configs":729,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("coloring(ring:6)/distributed/markov", {|{"prob1":true,"configs":729,"mean":1.70559117223934,"max":3.2577012082695296}|});
    ("coloring(ring:7)/central/check", {|{"configs":2187,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("coloring(ring:7)/central/markov", {|{"prob1":true,"configs":2187,"mean":2.0740740740740682,"max":4.6666666666666661}|});
    ("coloring(ring:7)/distributed/check", {|{"configs":2187,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("coloring(ring:7)/distributed/markov", {|{"prob1":true,"configs":2187,"mean":1.8839373300026634,"max":3.4760096823322462}|});
    ("coloring(ring:8)/central/check", {|{"configs":6561,"weak":true,"self":true,"self_weakly_fair":true,"self_strongly_fair":true}|});
    ("coloring(ring:8)/central/markov", {|{"prob1":true,"configs":6561,"mean":2.3703703703703325,"max":5.3333333333333339}|});
    ("coloring(ring:8)/distributed/check", {|{"configs":6561,"weak":true,"self":false,"self_weakly_fair":false,"self_strongly_fair":false}|});
    ("coloring(ring:8)/distributed/markov", {|{"prob1":true,"configs":6561,"mean":2.0255428509214752,"max":3.6255774894013206}|});
    ("two-bool(ring:2)/central/markov", {|{"prob1":false,"unreachable_from":0}|});
    ("token-ring(ring:10)/central/markov", {|{"prob1":true,"configs":59049,"mean":21.510329132678965,"max":24.999999989517995}|});
  ]

let campaign_cell label = List.assoc_opt label campaign_cells

let rec json_equal a b =
  match (a, b) with
  | (Json.Float _ | Json.Int _), (Json.Float _ | Json.Int _) ->
    let f = function Json.Float x -> x | Json.Int i -> float_of_int i | _ -> nan in
    close ~expected:(f a) (f b)
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | _ -> a = b

let payload_equal ~expected payload =
  match Json.of_string expected with
  | Ok e -> json_equal e payload
  | Error _ -> false
