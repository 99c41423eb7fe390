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

(* The guards and the legitimacy predicate run at every engine step, so
   everything below counts in place and allocates nothing: the loops are
   top-level functions, since a local one closing over its arguments
   would allocate its closure on each call. *)

(* Global id of p's parent, or -1 at a root. *)
let parent_of g cfg p = match cfg.(p) with Root -> -1 | Parent k -> Graph.neighbor g p k

let is_root cfg p = match cfg.(p) with Root -> true | Parent _ -> false

let points_to g cfg q p = parent_of g cfg q = p

let children g cfg p =
  Array.to_list (Graph.neighbors g p) |> List.filter (fun q -> points_to g cfg q p)

let child_count g cfg p =
  let count = ref 0 in
  for k = 0 to Graph.degree g p - 1 do
    if points_to g cfg (Graph.neighbor g p k) p then incr count
  done;
  !count

(* Some neighbour of local index k or above is neither a child of p nor
   [parent]. *)
let rec has_other g cfg p parent k =
  k < Graph.degree g p
  &&
  let q = Graph.neighbor g p k in
  ((not (points_to g cfg q p)) && q <> parent) || has_other g cfg p parent (k + 1)

(* Walk up parent pointers; stop at a root or at a mutually-pointing
   pair (Definition 12's initial extremity). Acyclicity bounds the walk
   by the tree size. *)
let rec walk_up g cfg u fuel =
  if fuel < 0 then invalid_arg "Leader_tree.root_of: pointer walk did not terminate"
  else
    let v = parent_of g cfg u in
    if v < 0 || parent_of g cfg v = u then u else walk_up g cfg v (fuel - 1)

let root_of g cfg p = walk_up g cfg p (Graph.size g)

(* The one root at index p or above, given the one below ([found], -1 if
   none); -1 when there is none or more than one. *)
let rec sole_root cfg p found =
  if p = Array.length cfg then found
  else if not (is_root cfg p) then sole_root cfg (p + 1) found
  else if found >= 0 then -1
  else sole_root cfg (p + 1) p

let rec all_reach g cfg l q =
  q = Graph.size g || ((q = l || root_of g cfg q = l) && all_reach g cfg l (q + 1))

let is_lc g cfg =
  let l = sole_root cfg 0 (-1) in
  l >= 0 && all_reach g cfg l 0

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
      guard = (fun cfg p -> (not (is_root cfg p)) && child_count g cfg p = Graph.degree g p);
      result = (fun _ _ -> [ (Root, 1.0) ]);
    }
  in
  let a2 : par Stabcore.Protocol.action =
    {
      label = "A2";
      guard =
        (fun cfg p -> (not (is_root cfg p)) && has_other g cfg p (parent_of g cfg p) 0);
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
      guard = (fun cfg p -> is_root cfg p && child_count g cfg p < Graph.degree g p);
      result =
        (fun cfg p ->
          (* Lowest local index among non-child neighbors — min w.r.t. p's
             local order, as in the paper's A3. *)
          let rec first k =
            if k >= Graph.degree g p then
              invalid_arg "Leader_tree.A3: no non-child neighbor"
            else if points_to g cfg (Graph.neighbor g p k) p then first (k + 1)
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
