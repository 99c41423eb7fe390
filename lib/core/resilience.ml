type metric = {
  k : int;
  faulty_configs : int;
  corrupted_configs : int;
  guaranteed : bool;
  worst_case : int option;
  prob_one : bool;
  expected_mean : float option;
  expected_max : float option;
}

type radius = { max_k : int; adversarial : int; probabilistic : int }

(* Shared per-space artifacts: the packed graph, the induced Markov
   chain and its global reachability structure are independent of [k],
   so one [prepare] serves every fault budget. *)
type 'a lab = {
  space : 'a Statespace.t;
  graph : Checker.graph;
  legitimate : bool array;
  chain : Markov.t;
  doomed : bool array;
      (* states from which, with positive probability, the chain gets
         trapped where [L] is unreachable — prob-1 recovery fails
         exactly from these *)
  hitting : float array option;
      (* expected hitting times of [L]; None when the chain does not
         converge with probability 1 from every state (I = C, so the
         global criterion is the honest one) *)
}

let prepare space cls spec =
  Stabobs.Obs.span "resilience.prepare" @@ fun () ->
  let graph = Checker.expand space cls in
  let legitimate = Statespace.legitimate_set space spec in
  let chain = Markov.of_space space (Analysis.randomization cls) in
  (* Two forward passes, no reverse: probability-1 convergence from
     every state is [L] reachable from every state, and a state is
     doomed iff it can reach one that cannot reach [L]. *)
  let reach_l = Markov.reaches chain ~target:legitimate in
  let doomed = Markov.reaches chain ~target:(Array.map not reach_l) in
  let hitting =
    if Array.for_all Fun.id reach_l then Some (Markov.expected_hitting_times chain ~legitimate)
    else None
  in
  { space; graph; legitimate; chain; doomed; hitting }

let metric_of_lab lab ~k =
  Stabobs.Obs.span ~args:[ ("k", Stabobs.Json.Int k) ] "resilience.metric" @@ fun () ->
  let faulty = Checker.k_faulty_set lab.space ~legitimate:lab.legitimate ~k in
  (* Forward closure of the corrupted configurations through
     illegitimate states: recovery executions live entirely inside it,
     ending at their first legitimate configuration. *)
  let reachable =
    Digraph.reach (Checker.successors lab.graph) ~seeds:faulty
      ~within:(fun c -> not lab.legitimate.(c))
  in
  (* Treating everything outside the closure as already recovered
     restricts the longest-path computation to exactly the sub-system
     the faulty set can see; [None] means some execution from a faulty
     configuration never converges — recovery is not guaranteed. *)
  let restricted = Array.mapi (fun c l -> l || not reachable.(c)) lab.legitimate in
  let worst_case =
    match Checker.worst_case_steps lab.space lab.graph ~legitimate:restricted with
    | None -> None
    | Some wc ->
      let worst = ref 0 in
      Array.iteri (fun c f -> if f && wc.(c) > !worst then worst := wc.(c)) faulty;
      Some !worst
  in
  let faulty_configs = ref 0 in
  let corrupted_configs = ref 0 in
  let prob_one = ref true in
  Array.iteri
    (fun c f ->
      if f then begin
        incr faulty_configs;
        if not lab.legitimate.(c) then incr corrupted_configs;
        if lab.doomed.(c) then prob_one := false
      end)
    faulty;
  let expected_mean, expected_max =
    match lab.hitting with
    | None -> (None, None)
    | Some h ->
      let sum = ref 0.0 and hi = ref 0.0 and outside = ref 0 in
      Array.iteri
        (fun c f ->
          if f then begin
            if h.(c) > !hi then hi := h.(c);
            if not lab.legitimate.(c) then begin
              sum := !sum +. h.(c);
              incr outside
            end
          end)
        faulty;
      let mean = if !outside = 0 then 0.0 else !sum /. float_of_int !outside in
      (Some mean, Some !hi)
  in
  {
    k;
    faulty_configs = !faulty_configs;
    corrupted_configs = !corrupted_configs;
    guaranteed = worst_case <> None;
    worst_case;
    prob_one = !prob_one;
    expected_mean;
    expected_max;
  }

let analyze space cls spec ~ks =
  Stabobs.Obs.span "resilience.analyze" @@ fun () ->
  let lab = prepare space cls spec in
  List.map (fun k -> metric_of_lab lab ~k) (List.sort_uniq compare ks)

let radius_of metrics =
  if metrics = [] then invalid_arg "Resilience.radius_of: no metrics";
  let sorted = List.sort (fun a b -> compare a.k b.k) metrics in
  let max_k = (List.nth sorted (List.length sorted - 1)).k in
  (* Faulty sets are nested, so both properties are downward closed in
     [k]; the radius is the last [k] before the first failure. *)
  let largest ok =
    let rec walk best = function
      | [] -> best
      | m :: rest -> if ok m then walk m.k rest else best
    in
    walk (-1) sorted
  in
  {
    max_k;
    adversarial = largest (fun m -> m.guaranteed);
    probabilistic = largest (fun m -> m.prob_one);
  }
