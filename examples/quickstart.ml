(* Quickstart: define your own protocol, then let the library tell you
   what kind of stabilization it achieves — and repair it.

   We write the most naive distributed graph-coloring rule imaginable:
   "if my color clashes with a neighbor, pick the smallest free color".
   On a path with 3 colors this is NOT self-stabilizing (two clashing
   neighbors can keep swapping forever under a synchronous daemon), but
   it IS weak-stabilizing — and the paper's Section 4 transformer
   upgrades it to a probabilistic self-stabilizing protocol, for free.

   Run with: dune exec examples/quickstart.exe *)

open Stabcore

let colors = 3

(* The protocol: one action per process. Guards read the process and
   its neighbors; statements write the process's own state only. *)
let coloring graph : int Protocol.t =
  let neighbor_colors cfg p =
    Array.to_list (Stabgraph.Graph.neighbors graph p) |> List.map (fun q -> cfg.(q))
  in
  let clashes cfg p = List.mem cfg.(p) (neighbor_colors cfg p) in
  let smallest_free cfg p =
    let taken = neighbor_colors cfg p in
    let rec go c = if List.mem c taken then go (c + 1) else c in
    go 0
  in
  let recolor : int Protocol.action =
    {
      label = "recolor";
      guard = clashes;
      result = (fun cfg p -> [ (min (smallest_free cfg p) (colors - 1), 1.0) ]);
    }
  in
  {
    Protocol.name = "naive-coloring";
    graph;
    domain = (fun _ -> List.init colors Fun.id);
    actions = [ recolor ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let properly_colored graph cfg =
  List.for_all (fun (p, q) -> cfg.(p) <> cfg.(q)) (Stabgraph.Graph.edges graph)

let () =
  let graph = Stabgraph.Graph.chain 4 in
  let protocol = coloring graph in
  let spec = Spec.make ~name:"proper-coloring" (properly_colored graph) in

  (* 1. Simulate one execution from a random configuration. *)
  let rng = Stabrng.Rng.create 7 in
  let init = Protocol.random_config rng protocol in
  let run =
    Engine.run ~stop_on:spec ~max_steps:30 rng protocol (Scheduler.central_random ()) ~init
  in
  Format.printf "--- a sample run (central randomized daemon)@.%a@.@."
    (Trace.pp protocol) run.Engine.trace;

  (* 2. Ask the checker what we actually built. *)
  let space = Statespace.build protocol in
  let verdict = Checker.analyze space Statespace.Distributed spec in
  Format.printf "--- exhaustive analysis over %d configurations@.%a@.@."
    (Statespace.count space) Checker.pp_verdict verdict;
  Format.printf "weak-stabilizing: %b, self-stabilizing: %b@.@."
    (Checker.weak_stabilizing verdict)
    (Checker.self_stabilizing verdict);

  (* 3. The paper's recipe: transform, and convergence becomes
     probability 1 under randomized (and synchronous) daemons. *)
  let transformed = Transformer.randomize protocol in
  let tspec = Transformer.lift_spec spec in
  let tspace = Statespace.build transformed in
  let legitimate = Statespace.legitimate_set tspace tspec in
  List.iter
    (fun (name, r) ->
      let chain = Markov.of_space tspace r in
      match Markov.hitting_stats_result chain ~legitimate with
      | Ok (stats, _) ->
        Format.printf
          "transformed protocol under %s: converges w.p. 1, mean %.3f steps@." name
          stats.Markov.mean
      | Error _ -> Format.printf "transformed protocol under %s: still diverges@." name)
    [
      ("synchronous daemon", Markov.Sync);
      ("central randomized daemon", Markov.Central_uniform);
      ("distributed randomized daemon", Markov.Distributed_uniform);
    ]
