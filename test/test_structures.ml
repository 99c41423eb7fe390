(* Tests for the structural protocols: rooted BFS spanning tree and
   maximal independent set. *)

open Stabcore

(* --- BFS spanning tree --- *)

let bfs_graphs =
  [
    ("chain4", Stabgraph.Graph.chain 4);
    ("ring4", Stabgraph.Graph.ring 4);
    ("star4", Stabgraph.Graph.star 4);
  ]

let test_bfs_self_stabilizing () =
  List.iter
    (fun (name, g) ->
      let p = Stabalgo.Bfs_tree.make g in
      let v = Checker.analyze (Statespace.build p) Statespace.Distributed (Stabalgo.Bfs_tree.spec g) in
      Alcotest.(check bool) (name ^ " self-stabilizing") true (Checker.self_stabilizing v))
    bfs_graphs

let test_bfs_terminal_configs_correct () =
  List.iter
    (fun (_, g) ->
      let p = Stabalgo.Bfs_tree.make g in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if Protocol.is_terminal p cfg && not ((Stabalgo.Bfs_tree.spec g).Spec.legitimate cfg) then
            Alcotest.fail "terminal but incorrect"))
    bfs_graphs

let test_bfs_correct_distances () =
  (* Run to terminal on a random graph-ish tree and compare against
     BFS distances computed independently by the graph library. *)
  (* The 2x3 mesh: rows 0-1-2 and 3-4-5, joined column by column. *)
  let g =
    Stabgraph.Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5); (0, 3); (1, 4); (2, 5) ]
  in
  let p = Stabalgo.Bfs_tree.make g in
  let rng = Stabrng.Rng.create 17 in
  let init = Protocol.random_config rng p in
  let r =
    Engine.run ~record:false ~max_steps:10_000 rng p (Scheduler.central_random ()) ~init
  in
  Alcotest.(check bool) "terminal" true (r.Engine.stop = Engine.Terminal);
  Stabgraph.Graph.iter_nodes
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "distance of %d" q)
        (Stabgraph.Graph.dist g 0 q)
        r.Engine.final.(q).Stabalgo.Bfs_tree.dist)
    g

let test_bfs_parents_form_tree () =
  let g = Stabgraph.Graph.ring 6 in
  let p = Stabalgo.Bfs_tree.make g in
  let rng = Stabrng.Rng.create 23 in
  for _ = 1 to 10 do
    let init = Protocol.random_config rng p in
    let r =
      Engine.run ~record:false ~max_steps:10_000 rng p (Scheduler.distributed_random ())
        ~init
    in
    if r.Engine.stop = Engine.Terminal then begin
      (* Walking parents from any node reaches the root in <= n hops. *)
      Stabgraph.Graph.iter_nodes
        (fun q ->
          let rec walk q fuel =
            if q = 0 then ()
            else if fuel = 0 then Alcotest.fail "parent walk does not reach root"
            else
              walk (Stabgraph.Graph.neighbor g q r.Engine.final.(q).Stabalgo.Bfs_tree.parent)
                (fuel - 1)
          in
          walk q (Stabgraph.Graph.size g))
        g
    end
  done

let test_bfs_rejects_disconnected () =
  (* A disconnected "graph" cannot arise from our builders; simulate by
     catching the connectivity guard via of_edges. *)
  let g = Stabgraph.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected" (Invalid_argument "Bfs_tree.make: graph is not connected")
    (fun () -> ignore (Stabalgo.Bfs_tree.make g))

(* --- MIS --- *)

let mis_graphs =
  [
    ("chain5", Stabgraph.Graph.chain 5);
    ("ring5", Stabgraph.Graph.ring 5);
    ("star5", Stabgraph.Graph.star 5);
    ("K3", Stabgraph.Graph.ring 3);
  ]

let test_mis_terminal_iff_maximal () =
  List.iter
    (fun (_, g) ->
      let p = Stabalgo.Mis.make g in
      let enc = Encoding.of_protocol p in
      Encoding.iter enc (fun _ cfg ->
          if Protocol.is_terminal p cfg <> (Stabalgo.Mis.spec g).Spec.legitimate cfg then
            Alcotest.fail "terminal <> maximal independent"))
    mis_graphs

let test_mis_central_self () =
  List.iter
    (fun (name, g) ->
      let p = Stabalgo.Mis.make g in
      let v = Checker.analyze (Statespace.build p) Statespace.Central (Stabalgo.Mis.spec g) in
      Alcotest.(check bool) (name ^ " central self") true (Checker.self_stabilizing v))
    mis_graphs

let test_mis_distributed_weak_not_self () =
  List.iter
    (fun (name, g) ->
      let p = Stabalgo.Mis.make g in
      let v =
        Checker.analyze (Statespace.build p) Statespace.Distributed (Stabalgo.Mis.spec g)
      in
      Alcotest.(check bool) (name ^ " weak") true (Checker.weak_stabilizing v);
      Alcotest.(check bool) (name ^ " not self") false (Checker.self_stabilizing v))
    mis_graphs

let test_mis_transformer_repairs () =
  let g = Stabgraph.Graph.ring 4 in
  let tp = Transformer.randomize (Stabalgo.Mis.make g) in
  let tspec = Transformer.lift_spec (Stabalgo.Mis.spec g) in
  let space = Statespace.build tp in
  let legitimate = Statespace.legitimate_set space tspec in
  List.iter
    (fun r ->
      Alcotest.(check bool) "prob-1" true
        (Result.is_ok
           (Markov.converges_with_prob_one (Markov.of_space space r) ~legitimate)))
    [ Markov.Sync; Markov.Distributed_uniform ]

let test_mis_predicates () =
  let g = Stabgraph.Graph.chain 3 in
  Alcotest.(check bool) "maximal" true
    ((Stabalgo.Mis.spec g).Spec.legitimate [| true; false; true |]);
  Alcotest.(check bool) "not independent" false
    ((Stabalgo.Mis.spec g).Spec.legitimate [| true; true; false |]);
  Alcotest.(check bool) "independent not maximal" false
    ((Stabalgo.Mis.spec g).Spec.legitimate [| true; false; false |])

let qcheck_mis_runs_end_maximal =
  QCheck.Test.make ~count:100 ~name:"central MIS runs end in maximal independent sets"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Stabgraph.Graph.random_tree rng n in
      let p = Stabalgo.Mis.make g in
      let init = Protocol.random_config rng p in
      let r =
        Engine.run ~record:false ~max_steps:2_000 rng p (Scheduler.central_random ()) ~init
      in
      match r.Engine.stop with
      | Engine.Terminal -> (Stabalgo.Mis.spec g).Spec.legitimate r.Engine.final
      | Engine.Exhausted | Engine.Converged | Engine.Stalled -> true)

let suite =
  [
    Alcotest.test_case "bfs self-stabilizing" `Slow test_bfs_self_stabilizing;
    Alcotest.test_case "bfs terminal correct" `Quick test_bfs_terminal_configs_correct;
    Alcotest.test_case "bfs distances" `Quick test_bfs_correct_distances;
    Alcotest.test_case "bfs parents form tree" `Quick test_bfs_parents_form_tree;
    Alcotest.test_case "bfs rejects disconnected" `Quick test_bfs_rejects_disconnected;
    Alcotest.test_case "mis terminal iff maximal" `Quick test_mis_terminal_iff_maximal;
    Alcotest.test_case "mis central self" `Quick test_mis_central_self;
    Alcotest.test_case "mis distributed weak" `Quick test_mis_distributed_weak_not_self;
    Alcotest.test_case "mis transformer repairs" `Quick test_mis_transformer_repairs;
    Alcotest.test_case "mis predicates" `Quick test_mis_predicates;
    Qcheck_seeded.to_alcotest qcheck_mis_runs_end_maximal;
  ]
