type 'a dist = ('a * float) list

type 'a action = {
  label : string;
  guard : 'a array -> int -> bool;
  result : 'a array -> int -> 'a dist;
}

type 'a t = {
  name : string;
  graph : Stabgraph.Graph.t;
  domain : int -> 'a list;
  actions : 'a action list;
  equal : 'a -> 'a -> bool;
  pp : Format.formatter -> 'a -> unit;
  randomized : bool;
}

let deterministic t = not t.randomized

let rec first_enabled cfg p = function
  | [] -> None
  | a :: rest -> if a.guard cfg p then Some a else first_enabled cfg p rest

let enabled_action t cfg p = first_enabled cfg p t.actions

let is_enabled t cfg p = List.exists (fun a -> a.guard cfg p) t.actions

let enabled_processes t cfg =
  Stabgraph.Graph.fold_nodes
    (fun p acc -> if is_enabled t cfg p then p :: acc else acc)
    t.graph []
  |> List.rev

let is_terminal t cfg = enabled_processes t cfg = []

(* Merge equal configurations, summing probabilities; quadratic but the
   distributions involved are tiny. *)
let merge_outcomes equal outcomes =
  let rec add acc (cfg, w) =
    match acc with
    | [] -> [ (cfg, w) ]
    | (cfg', w') :: rest ->
      if equal cfg cfg' then (cfg', w' +. w) :: rest else (cfg', w') :: add rest (cfg, w)
  in
  List.fold_left add [] outcomes

let equal_config t c1 c2 =
  Array.length c1 = Array.length c2
  &&
  let rec go i = i >= Array.length c1 || (t.equal c1.(i) c2.(i) && go (i + 1)) in
  go 0

let step_outcomes t cfg active =
  (* Collect, per active enabled process, its local outcome
     distribution, then take the product. All reads are from [cfg]. *)
  let updates =
    List.filter_map
      (fun p ->
        match enabled_action t cfg p with
        | None -> None
        | Some a -> Some (p, a.result cfg p))
      active
  in
  let base = [ (Array.copy cfg, 1.0) ] in
  let apply_process outcomes (p, local_dist) =
    List.concat_map
      (fun (partial, w) ->
        List.map
          (fun (state, pw) ->
            let next = Array.copy partial in
            next.(p) <- state;
            (next, w *. pw))
          local_dist)
      outcomes
  in
  let outcomes = List.fold_left apply_process base updates in
  merge_outcomes (equal_config t) outcomes

let step_sample rng t cfg active =
  let next = Array.copy cfg in
  List.iter
    (fun p ->
      match enabled_action t cfg p with
      | None -> ()
      | Some a -> (
        match a.result cfg p with
        | [ (state, _) ] -> next.(p) <- state
        | dist -> next.(p) <- Stabrng.Rng.pick_weighted rng dist))
    active;
  next

let config_sampler t =
  let domains = Array.init (Stabgraph.Graph.size t.graph) (fun p -> Array.of_list (t.domain p)) in
  fun rng -> Array.map (fun dom -> Stabrng.Rng.choice rng dom) domains

let random_config rng t = config_sampler t rng

let malformed t a p what =
  invalid_arg
    (Printf.sprintf "Protocol %s: action %s at process %d returned %s" t.name a.label p what)

let rec outcome_total t a p acc = function
  | [] -> acc
  | (_, w) :: rest ->
    if w > 0.0 then outcome_total t a p (acc +. w) rest
    else malformed t a p (Printf.sprintf "an outcome of non-positive weight %g" w)

let check_outcomes t a p dist =
  match dist with
  | [] -> malformed t a p "an empty outcome distribution"
  | _ :: _ ->
    let total = outcome_total t a p 0.0 dist in
    if not (Float.abs (total -. 1.0) <= 1e-9) then
      malformed t a p (Printf.sprintf "outcome weights summing to %.17g, not 1" total)

let pp_config t fmt cfg =
  Format.fprintf fmt "@[<h>[";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf fmt " ";
      t.pp fmt s)
    cfg;
  Format.fprintf fmt "]@]"

let exclusive_guards_violation t cfg =
  let violates p =
    let enabled = List.filter (fun a -> a.guard cfg p) t.actions in
    List.length enabled > 1
  in
  Stabgraph.Graph.fold_nodes
    (fun p acc -> match acc with Some _ -> acc | None -> if violates p then Some p else None)
    t.graph None
