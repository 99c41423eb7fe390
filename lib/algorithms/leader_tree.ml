module Graph = Stabgraph.Graph

type par = Root | Parent of int

let equal_par a b =
  match (a, b) with
  | Root, Root -> true
  | Parent i, Parent j -> i = j
  | Root, Parent _ | Parent _, Root -> false

let leaders cfg =
  Array.to_list (Array.mapi (fun p s -> (p, s)) cfg)
  |> List.filter_map (fun (p, s) -> if s = Root then Some p else None)

(* Global id of p's parent, if any. *)
let parent_of g cfg p =
  match cfg.(p) with Root -> None | Parent k -> Some (Graph.neighbor g p k)

let points_to g cfg q p = parent_of g cfg q = Some p

let children g cfg p =
  Array.to_list (Graph.neighbors g p) |> List.filter (fun q -> points_to g cfg q p)

let root_of g cfg p =
  (* Walk up parent pointers; stop at a root or at a mutually-pointing
     pair (Definition 12's initial extremity). Acyclicity bounds the
     walk by the tree size. *)
  let n = Graph.size g in
  let rec go u fuel =
    if fuel < 0 then invalid_arg "Leader_tree.root_of: pointer walk did not terminate"
    else
      match parent_of g cfg u with
      | None -> u
      | Some v -> if parent_of g cfg v = Some u then u else go v (fuel - 1)
  in
  go p n

let is_lc g cfg =
  match leaders cfg with
  | [ l ] ->
    Graph.fold_nodes (fun q acc -> acc && (q = l || root_of g cfg q = l)) g true
  | [] | _ :: _ :: _ -> false

(* State translation under a tree automorphism: a parent pointer is a
   *local* neighbor index, so moving p's state to perm.(p) must re-index
   the pointed-at neighbor in perm.(p)'s adjacency. *)
let relabel g ~perm p s =
  match s with
  | Root -> Root
  | Parent k -> Parent (Graph.local_index g perm.(p) perm.(Graph.neighbor g p k))

let make g =
  if not (Graph.is_tree g) then invalid_arg "Leader_tree.make: graph is not a tree";
  let a1 : par Stabcore.Protocol.action =
    {
      label = "A1";
      guard =
        (fun cfg p ->
          cfg.(p) <> Root && List.length (children g cfg p) = Graph.degree g p);
      result = (fun _ _ -> [ (Root, 1.0) ]);
    }
  in
  let non_child_non_parent cfg p =
    let kids = children g cfg p in
    Array.to_list (Graph.neighbors g p)
    |> List.filter (fun q -> (not (List.mem q kids)) && parent_of g cfg p <> Some q)
  in
  let a2 : par Stabcore.Protocol.action =
    {
      label = "A2";
      guard = (fun cfg p -> cfg.(p) <> Root && non_child_non_parent cfg p <> []);
      result =
        (fun cfg p ->
          match cfg.(p) with
          | Root -> assert false
          | Parent k -> [ (Parent ((k + 1) mod Graph.degree g p), 1.0) ]);
    }
  in
  let a3 : par Stabcore.Protocol.action =
    {
      label = "A3";
      guard =
        (fun cfg p ->
          cfg.(p) = Root && List.length (children g cfg p) < Graph.degree g p);
      result =
        (fun cfg p ->
          (* Lowest local index among non-child neighbors — min w.r.t. p's
             local order, as in the paper's A3. *)
          let kids = children g cfg p in
          let rec first k =
            if k >= Graph.degree g p then
              invalid_arg "Leader_tree.A3: no non-child neighbor"
            else if List.mem (Graph.neighbor g p k) kids then first (k + 1)
            else k
          in
          [ (Parent (first 0), 1.0) ]);
    }
  in
  {
    Stabcore.Protocol.name = Printf.sprintf "leader-tree(n=%d)" (Graph.size g);
    graph = g;
    domain =
      (fun p -> Root :: List.init (Graph.degree g p) (fun k -> Parent k));
    actions = [ a1; a2; a3 ];
    equal = equal_par;
    pp =
      (fun fmt s ->
        match s with
        | Root -> Format.pp_print_string fmt "_"
        | Parent k -> Format.pp_print_int fmt k);
    randomized = false;
  }

let spec g = Stabcore.Spec.make ~name:"unique-leader-orientation" (is_lc g)

let fig2_tree =
  Graph.of_edges ~n:8 [ (0, 2); (1, 2); (2, 4); (3, 5); (4, 5); (4, 7); (5, 6) ]

let fig2_initial =
  [|
    Parent 0 (* P1 -> P3 *);
    Parent 0 (* P2 -> P3 *);
    Parent 0 (* P3 -> P1 *);
    Parent 0 (* P4 -> P6 *);
    Parent 1 (* P5 -> P6 *);
    Parent 1 (* P6 -> P5 *);
    Parent 0 (* P7 -> P6 *);
    Parent 0 (* P8 -> P5 *);
  |]

let fig2_script = [ [ 0 ]; [ 5 ]; [ 2 ]; [ 0 ]; [ 2 ] ]
