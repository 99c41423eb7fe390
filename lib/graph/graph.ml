type t = {
  n : int;
  adj : int array array; (* adj.(p).(k) = global id of p's neighbor of local index k *)
}

let size g = g.n
let degree g p = Array.length g.adj.(p)

let max_degree g =
  Array.fold_left (fun acc row -> max acc (Array.length row)) 0 g.adj

let neighbors g p = Array.copy g.adj.(p)
let neighbor g p k = g.adj.(p).(k)

let local_index g p q =
  let row = g.adj.(p) in
  let rec go k =
    if k >= Array.length row then raise Not_found
    else if row.(k) = q then k
    else go (k + 1)
  in
  go 0

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let seen = Hashtbl.create (List.length edges) in
  let lists = Array.make n [] in
  let add_edge (p, q) =
    if p < 0 || p >= n || q < 0 || q >= n then invalid_arg "Graph.of_edges: node out of range";
    if p = q then invalid_arg "Graph.of_edges: self-loop";
    let key = (min p q, max p q) in
    if Hashtbl.mem seen key then invalid_arg "Graph.of_edges: duplicate edge";
    Hashtbl.add seen key ();
    lists.(p) <- q :: lists.(p);
    lists.(q) <- p :: lists.(q)
  in
  List.iter add_edge edges;
  let adj = Array.map (fun l -> Array.of_list (List.sort compare l)) lists in
  { n; adj }

let ring n =
  if n < 2 then invalid_arg "Graph.ring: need n >= 2";
  if n = 2 then of_edges ~n [ (0, 1) ]
  else of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let chain n =
  if n < 1 then invalid_arg "Graph.chain: need n >= 1";
  of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  if n < 2 then invalid_arg "Graph.star: need n >= 2";
  of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let tree_of_pruefer seq n =
  (* Standard Pruefer decoding: n >= 2, seq has length n - 2. The node
     n-1 never becomes the working leaf, so the last edge joins the
     final leaf to n-1. *)
  let deg = Array.make n 1 in
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
  let edges = ref [] in
  let next_leaf from =
    let rec go i = if deg.(i) = 1 then i else go (i + 1) in
    go from
  in
  let pointer = ref (next_leaf 0) in
  let leaf = ref !pointer in
  Array.iter
    (fun v ->
      edges := (!leaf, v) :: !edges;
      deg.(v) <- deg.(v) - 1;
      if deg.(v) = 1 && v < !pointer then leaf := v
      else begin
        pointer := next_leaf (!pointer + 1);
        leaf := !pointer
      end)
    seq;
  edges := (!leaf, n - 1) :: !edges;
  of_edges ~n !edges

let reorder_neighbors g p order =
  if p < 0 || p >= g.n then invalid_arg "Graph.reorder_neighbors: node out of range";
  let current = Array.to_list g.adj.(p) |> List.sort compare in
  let proposed = Array.to_list order |> List.sort compare in
  if current <> proposed then
    invalid_arg "Graph.reorder_neighbors: order is not a permutation of the neighbors";
  let adj = Array.copy g.adj in
  adj.(p) <- Array.copy order;
  { g with adj }

let random_tree rng n =
  if n < 1 then invalid_arg "Graph.random_tree: need n >= 1";
  if n = 1 then of_edges ~n []
  else if n = 2 then of_edges ~n [ (0, 1) ]
  else tree_of_pruefer (Array.init (n - 2) (fun _ -> Stabrng.Rng.int rng n)) n

(* Breadth-first distances from a source; -1 marks unreachable nodes. *)
let bfs g source =
  let dist = Array.make g.n (-1) in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    Array.iter
      (fun q ->
        if dist.(q) < 0 then begin
          dist.(q) <- dist.(p) + 1;
          Queue.add q queue
        end)
      g.adj.(p)
  done;
  dist

let is_connected g = Array.for_all (fun d -> d >= 0) (bfs g 0)

let edge_count g = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj / 2

let is_tree g = is_connected g && edge_count g = g.n - 1

let is_ring g =
  g.n >= 3 && is_connected g && Array.for_all (fun row -> Array.length row = 2) g.adj

let dist g p q =
  let d = (bfs g p).(q) in
  if d < 0 then invalid_arg "Graph.dist: disconnected pair" else d

let eccentricity g p =
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Graph.eccentricity: disconnected graph" else max acc d)
    0 (bfs g p)

let centers g =
  let ecc = Array.init g.n (eccentricity g) in
  let radius = Array.fold_left min ecc.(0) ecc in
  List.filter (fun p -> ecc.(p) = radius) (List.init g.n Fun.id)

let fold_nodes f g acc =
  let rec go p acc = if p >= g.n then acc else go (p + 1) (f p acc) in
  go 0 acc

let iter_nodes f g =
  for p = 0 to g.n - 1 do
    f p
  done

let edges g =
  let all =
    fold_nodes
      (fun p acc ->
        Array.fold_left (fun acc q -> if p < q then (p, q) :: acc else acc) acc g.adj.(p))
      g []
  in
  List.sort compare all

(* AHU canonical encoding of a rooted tree: children encodings sorted
   and concatenated inside parentheses. *)
let rec ahu g parent root =
  let children =
    Array.to_list g.adj.(root) |> List.filter (fun q -> q <> parent)
  in
  let encodings = List.sort compare (List.map (ahu g root) children) in
  "(" ^ String.concat "" encodings ^ ")"

let tree_canonical g =
  if not (is_tree g) then invalid_arg "Graph.tree_canonical: not a tree";
  (* Root at the center(s); with two centers take the lexicographic
     minimum of both encodings so the form is isomorphism-invariant. *)
  let forms = List.map (fun c -> ahu g (-1) c) (centers g) in
  List.fold_left min (List.hd forms) forms

(* --- automorphism groups --- *)

exception Too_many_automorphisms

(* Walk the ring once to recover the cyclic order (the adjacency may
   come from [of_edges] in any edge order), then emit the dihedral
   group in that order: n rotations followed by n reflections. *)
let dihedral_elements g =
  let n = g.n in
  let order = Array.make n 0 in
  let pos = Array.make n 0 in
  let prev = ref (-1) in
  let cur = ref 0 in
  for i = 0 to n - 1 do
    order.(i) <- !cur;
    pos.(!cur) <- i;
    let row = g.adj.(!cur) in
    let next = if row.(0) = !prev then row.(1) else row.(0) in
    prev := !cur;
    cur := next
  done;
  let rotations =
    List.init n (fun k -> Array.init n (fun p -> order.((pos.(p) + k) mod n)))
  in
  let reflections =
    List.init n (fun k ->
        Array.init n (fun p -> order.((((k - pos.(p)) mod n) + n) mod n)))
  in
  rotations @ reflections

(* Tree automorphisms by AHU-class backtracking: two rooted subtrees
   admit a bijection iff their canonical codes agree, in which case the
   bijections are exactly the code-respecting matchings of children,
   extended recursively. [budget] caps the number of pair productions so
   a highly symmetric tree cannot blow up the enumeration. *)
let tree_automorphisms ~budget g =
  let codes = Hashtbl.create (4 * g.n) in
  let rec code parent root =
    match Hashtbl.find_opt codes (parent, root) with
    | Some s -> s
    | None ->
      let children =
        Array.to_list g.adj.(root) |> List.filter (fun q -> q <> parent)
      in
      let s =
        "(" ^ String.concat "" (List.sort compare (List.map (code root) children)) ^ ")"
      in
      Hashtbl.add codes (parent, root) s;
      s
  in
  let work = ref 0 in
  let pair r1 r2 m =
    incr work;
    if !work > budget then raise Too_many_automorphisms;
    (r1, r2) :: m
  in
  (* All bijections of the subtree (par1 -> r1) onto (par2 -> r2), as
     association lists of (node, image) pairs. *)
  let rec subtree_maps par1 r1 par2 r2 =
    if not (String.equal (code par1 r1) (code par2 r2)) then []
    else begin
      let ch1 = Array.to_list g.adj.(r1) |> List.filter (fun q -> q <> par1) in
      let ch2 = Array.to_list g.adj.(r2) |> List.filter (fun q -> q <> par2) in
      let rec matchings remaining1 remaining2 =
        match remaining1 with
        | [] -> [ [] ]
        | c1 :: rest1 ->
          List.concat_map
            (fun c2 ->
              match subtree_maps r1 c1 r2 c2 with
              | [] -> []
              | subs ->
                let rest2 = List.filter (fun x -> x <> c2) remaining2 in
                List.concat_map
                  (fun rest_map -> List.map (fun sub -> sub @ rest_map) subs)
                  (matchings rest1 rest2))
            remaining2
      in
      List.map (pair r1 r2) (matchings ch1 ch2)
    end
  in
  let product as_ bs = List.concat_map (fun a -> List.map (fun b -> a @ b) bs) as_ in
  let maps =
    match centers g with
    | [ c ] -> subtree_maps (-1) c (-1) c
    | [ c1; c2 ] ->
      let fixing = product (subtree_maps c2 c1 c2 c1) (subtree_maps c1 c2 c1 c2) in
      let swapping = product (subtree_maps c2 c1 c1 c2) (subtree_maps c1 c2 c2 c1) in
      fixing @ swapping
    | _ -> invalid_arg "Graph.tree_automorphisms: trees have one or two centers"
  in
  List.map
    (fun assoc ->
      let perm = Array.make g.n (-1) in
      List.iter (fun (p, q) -> perm.(p) <- q) assoc;
      perm)
    maps

let automorphisms ?(limit = 10_000) g =
  let identity = Array.init g.n Fun.id in
  let found =
    if is_ring g then Some (dihedral_elements g)
    else if is_tree g then begin
      match tree_automorphisms ~budget:(limit * max 4 g.n) g with
      | elements when List.length elements <= limit -> Some elements
      | _ -> None
      | exception Too_many_automorphisms -> None
    end
    else None
  in
  match found with
  | None -> [ identity ]
  | Some elements ->
    (* Identity first; the rest keep the enumeration order. *)
    let id_first, rest = List.partition (fun p -> p = identity) elements in
    (match id_first with
    | [] -> identity :: rest (* defensive: the enumeration always includes it *)
    | _ -> identity :: rest)

let all_trees n =
  if n < 1 || n > 8 then invalid_arg "Graph.all_trees: supported for 1 <= n <= 8";
  if n = 1 then [ of_edges ~n [] ]
  else if n = 2 then [ of_edges ~n [ (0, 1) ] ]
  else begin
    (* Enumerate all Pruefer sequences and deduplicate by canonical form. *)
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let seq = Array.make (n - 2) 0 in
    let rec enumerate pos =
      if pos = n - 2 then begin
        let g = tree_of_pruefer (Array.copy seq) n in
        let key = tree_canonical g in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          out := g :: !out
        end
      end
      else
        for v = 0 to n - 1 do
          seq.(pos) <- v;
          enumerate (pos + 1)
        done
    in
    enumerate 0;
    List.rev !out
  end
