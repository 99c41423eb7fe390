open Stabcore

type row = { label : string; holds : bool; detail : string }

type result = { id : string; claim : string; rows : row list }

let all_hold r = List.for_all (fun row -> row.holds) r.rows

let report r =
  let table =
    Report.create
      ~title:(Printf.sprintf "%s: %s" r.id r.claim)
      ~columns:[ "instance"; "holds"; "detail" ]
  in
  List.iter
    (fun row -> Report.add_row table [ row.label; Report.cell_bool row.holds; row.detail ])
    r.rows;
  table

(* Polymorphic protocol+spec pair, so heterogeneous state types can sit
   in one list. *)
type instance = Instance : string * 'a Protocol.t * 'a Spec.t -> instance

let small_instances () =
  [
    Instance ("token-ring n=4", Stabalgo.Token_ring.make ~n:4, Stabalgo.Token_ring.spec ~n:4);
    Instance ("token-ring n=5", Stabalgo.Token_ring.make ~n:5, Stabalgo.Token_ring.spec ~n:5);
    Instance ("two-bool", Stabalgo.Two_bool.make (), Stabalgo.Two_bool.spec);
    Instance
      ( "dijkstra n=4",
        Stabalgo.Dijkstra_kstate.make ~n:4 (),
        Stabalgo.Dijkstra_kstate.spec ~n:4 );
  ]
  @ List.concat_map
      (fun g ->
        [
          Instance
            ( Printf.sprintf "leader-tree n=%d" (Stabgraph.Graph.size g),
              Stabalgo.Leader_tree.make g,
              Stabalgo.Leader_tree.spec g );
          Instance
            ( Printf.sprintf "centers n=%d" (Stabgraph.Graph.size g),
              Stabalgo.Centers.make g,
              Stabalgo.Centers.spec g );
        ])
      (Stabgraph.Graph.all_trees 5)

let theorem1 () =
  let rows =
    List.map
      (fun (Instance (label, p, spec)) ->
        let v = Checker.analyze (Statespace.build p) Statespace.Synchronous spec in
        let weak = Checker.weak_stabilizing v in
        let self = Checker.self_stabilizing v in
        {
          label;
          holds = weak = self;
          detail = Printf.sprintf "weak=%b self=%b" weak self;
        })
      (small_instances ())
  in
  {
    id = "T1";
    claim = "synchronous scheduler: weak-stabilizing iff self-stabilizing";
    rows;
  }

let theorem2 () =
  let rows =
    List.map
      (fun n ->
        let p = Stabalgo.Token_ring.make ~n in
        let space = Statespace.build p in
        let v =
          Checker.analyze space Statespace.Distributed (Stabalgo.Token_ring.spec ~n)
        in
        let weak = Checker.weak_stabilizing v in
        let self_sf = Checker.self_stabilizing_strongly_fair v in
        {
          label = Printf.sprintf "ring n=%d (m=%d)" n (Stabalgo.Token_ring.smallest_non_divisor n);
          holds = weak && not self_sf;
          detail =
            Printf.sprintf "weak=%b self(strongly-fair)=%b divergence-witness=%s" weak
              self_sf
              (match Lazy.force v.Checker.strongly_fair_diverges with
              | Some w -> Printf.sprintf "%d states" (List.length w)
              | None -> "none");
        })
      [ 3; 4; 5; 6; 7 ]
  in
  { id = "T2"; claim = "Algorithm 1: weak-stabilizing, not self-stabilizing"; rows }

let theorem3 () =
  let g = Stabgraph.Graph.reorder_neighbors (Stabgraph.Graph.chain 4) 2 [| 3; 1 |] in
  let p = Stabalgo.Leader_tree.make g in
  let space = Statespace.build p in
  let symmetric cfg = cfg.(0) = cfg.(3) && cfg.(1) = cfg.(2) in
  let closed = Checker.sync_closed_set space symmetric = None in
  let none_legitimate = ref true in
  let none_terminal = ref true in
  Encoding.iter (Statespace.encoding space) (fun _ cfg ->
      if symmetric cfg then begin
        if Stabalgo.Leader_tree.is_lc g cfg then none_legitimate := false;
        if Protocol.is_terminal p cfg then none_terminal := false
      end);
  {
    id = "T3";
    claim = "no deterministic self-stabilizing leader election on anonymous trees";
    rows =
      [
        {
          label = "symmetric set closed under sync (adversarial labels)";
          holds = closed;
          detail = "X = { <a,b,b,a> } on the 4-chain";
        };
        {
          label = "no symmetric configuration elects a leader";
          holds = !none_legitimate;
          detail = "symmetry precludes a unique leader";
        };
        {
          label = "no symmetric configuration is terminal";
          holds = !none_terminal;
          detail = "the synchronous run from X never halts";
        };
      ];
  }

let theorem4 () =
  let rows =
    List.concat_map
      (fun n ->
        List.mapi
          (fun i g ->
            let p = Stabalgo.Leader_tree.make g in
            let space = Statespace.build p in
            let v =
              Checker.analyze space Statespace.Distributed (Stabalgo.Leader_tree.spec g)
            in
            let weak = Checker.weak_stabilizing v in
            let self = Checker.self_stabilizing v in
            {
              label = Printf.sprintf "tree n=%d #%d" n i;
              holds = weak && not self;
              detail = Printf.sprintf "weak=%b self=%b" weak self;
            })
          (Stabgraph.Graph.all_trees n))
      [ 2; 3; 4; 5; 6 ]
  in
  { id = "T4"; claim = "Algorithm 2: weak-stabilizing leader election on trees"; rows }

(* Gouda's observation, stated as the paper's Theorem 5: in a finite
   system, weak stabilization already implies probabilistic
   self-stabilization once the daemon is made uniformly random —
   possible convergence plus positive-probability steps give
   probability-1 convergence. Checked by pairing the exhaustive weak
   verdict with probability-1 reachability in the induced Markov
   chain, and quantified through its expected hitting times. *)
let theorem5 () =
  let check (Instance (label, p, spec)) =
    let space = Statespace.build p in
    let v = Checker.analyze space Statespace.Distributed spec in
    let weak = Checker.weak_stabilizing v in
    let legitimate = Statespace.legitimate_set space spec in
    let chain = Markov.of_space space Markov.Distributed_uniform in
    let prob1 = Result.is_ok (Markov.converges_with_prob_one chain ~legitimate) in
    let detail =
      if weak && prob1 then
        let stats = Markov.hitting_stats chain ~legitimate in
        Printf.sprintf "weak=true prob1=true mean-hit=%.2f max-hit=%.2f"
          stats.Markov.mean stats.Markov.max
      else Printf.sprintf "weak=%b prob1=%b" weak prob1
    in
    { label; holds = (not weak) || prob1; detail }
  in
  {
    id = "T5";
    claim = "finite weak-stabilizing => probabilistic self-stabilization (uniform daemon)";
    rows = List.map check (small_instances ());
  }

(* The Theorem 6 lasso: alternate the two token holders of a 6-ring
   until the configuration recurs. *)
let thm6_lasso () =
  let n = 6 in
  let p = Stabalgo.Token_ring.make ~n in
  let init = Stabalgo.Token_ring.config_with_tokens_at ~n [ 0; 3 ] in
  let rng = Stabrng.Rng.create 0 in
  let seen = Hashtbl.create 64 in
  let rec go cfg count acc =
    if count > 5000 then failwith "thm6: no recurrence"
    else begin
      let key = (Array.to_list cfg, count mod 2) in
      match Hashtbl.find_opt seen key with
      | Some first ->
        let events = List.rev acc in
        (p, List.filteri (fun i _ -> i >= first) events)
      | None ->
        Hashtbl.add seen key count;
        let mover =
          match Stabalgo.Token_ring.token_holders ~n cfg with
          | [ a; b ] -> if count mod 2 = 0 then a else b
          | _ -> failwith "thm6: token count changed"
        in
        let next = Protocol.step_sample rng p cfg [ mover ] in
        let event =
          { Engine.before = Array.copy cfg; fired = [ (mover, "A") ]; after = next }
        in
        go next (count + 1) (event :: acc)
    end
  in
  go init 0 []

let theorem6 () =
  let p, cycle = thm6_lasso () in
  let spec = Stabalgo.Token_ring.spec ~n:6 in
  let assessment = Fairness.assess_lasso p ~cycle in
  let never_legitimate =
    List.for_all (fun e -> not (spec.Spec.legitimate e.Engine.before)) cycle
  in
  let gouda = Fairness.is_gouda_fair_cycle p ~cycle in
  {
    id = "T6";
    claim = "Gouda's strong fairness is strictly stronger than strong fairness";
    rows =
      [
        {
          label = "alternating two-token execution is strongly fair";
          holds = assessment.Fairness.strongly_fair;
          detail = Printf.sprintf "cycle of %d steps" (List.length cycle);
        };
        {
          label = "it never reaches a legitimate configuration";
          holds = never_legitimate;
          detail = "two tokens forever";
        };
        {
          label = "it is not Gouda-fair";
          holds = not gouda;
          detail = "some enabled transition from a recurring config never occurs";
        };
      ];
  }

let theorem7 () =
  let check (Instance (label, p, spec)) =
    let space = Statespace.build p in
    let v = Checker.analyze space Statespace.Distributed spec in
    let weak = Checker.weak_stabilizing v in
    let legitimate = Statespace.legitimate_set space spec in
    let closed =
      Result.is_ok
        (Checker.check_closure space (Checker.expand space Statespace.Distributed) spec)
    in
    let prob1 =
      Result.is_ok
        (Markov.converges_with_prob_one
           (Markov.of_space space Markov.Distributed_uniform)
           ~legitimate)
    in
    {
      label;
      holds = weak = (closed && prob1);
      detail = Printf.sprintf "weak=%b closure=%b prob1=%b" weak closed prob1;
    }
  in
  {
    id = "T7";
    claim = "weak-stabilization = probabilistic self-stabilization (randomized daemon)";
    rows = List.map check (small_instances ());
  }

let theorems8_9 () =
  let check (Instance (label, p, spec)) =
    let tp = Transformer.randomize p in
    let space = Statespace.build tp in
    let tspec = Transformer.lift_spec spec in
    let legitimate = Statespace.legitimate_set space tspec in
    let prob1 r =
      Result.is_ok (Markov.converges_with_prob_one (Markov.of_space space r) ~legitimate)
    in
    let sync = prob1 Markov.Sync in
    let distributed = prob1 Markov.Distributed_uniform in
    let closed =
      Result.is_ok
        (Checker.check_closure space (Checker.expand space Statespace.Distributed) tspec)
    in
    {
      label = "Trans(" ^ label ^ ")";
      holds = sync && distributed && closed;
      detail = Printf.sprintf "sync=%b distributed=%b closure=%b" sync distributed closed;
    }
  in
  let instances =
    [
      Instance ("token-ring n=4", Stabalgo.Token_ring.make ~n:4, Stabalgo.Token_ring.spec ~n:4);
      Instance ("two-bool", Stabalgo.Two_bool.make (), Stabalgo.Two_bool.spec);
    ]
    @ List.map
        (fun g ->
          Instance
            ( Printf.sprintf "leader-tree n=%d" (Stabgraph.Graph.size g),
              Stabalgo.Leader_tree.make g,
              Stabalgo.Leader_tree.spec g ))
        (Stabgraph.Graph.all_trees 4)
  in
  {
    id = "T8/T9";
    claim = "the transformer yields probabilistic self-stabilization (sync + randomized)";
    rows = List.map check instances;
  }

let all =
  [
    ("T1", theorem1);
    ("T2", theorem2);
    ("T3", theorem3);
    ("T4", theorem4);
    ("T5", theorem5);
    ("T6", theorem6);
    ("T7", theorem7);
    ("T8/T9", theorems8_9);
  ]
