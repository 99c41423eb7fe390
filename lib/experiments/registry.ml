open Stabcore

type entry =
  | Entry : {
      label : string;
      protocol : 'a Protocol.t;
      spec : 'a Spec.t;
      relabel : (perm:int array -> int -> 'a -> 'a) option;
          (* state translation under graph automorphisms, for symmetry
             quotients; [None] = states carry no neighbor indexes *)
      describe : string;
    }
      -> entry

let topology_of_string s =
  let int field =
    match int_of_string_opt field with
    | Some n -> n
    | None ->
      invalid_arg (Printf.sprintf "Registry: topology %s: %S is not an integer" s field)
  in
  match String.split_on_char ':' s with
  | [ "chain"; n ] -> Stabgraph.Graph.chain (int n)
  | [ "star"; n ] -> Stabgraph.Graph.star (int n)
  | [ "ring"; n ] -> Stabgraph.Graph.ring (int n)
  | [ "random"; n; seed ] ->
    Stabgraph.Graph.random_tree (Stabrng.Rng.create (int seed)) (int n)
  | [ n ] -> (
    match int_of_string_opt n with
    | Some n -> Stabgraph.Graph.ring n
    | None -> invalid_arg ("Registry: unknown topology " ^ s))
  | _ -> invalid_arg ("Registry: unknown topology " ^ s)

let ring_size topology =
  let g = topology_of_string topology in
  if not (Stabgraph.Graph.is_ring g) then
    invalid_arg "Registry: this protocol needs a ring of at least 3 nodes (e.g. ring:6)";
  Stabgraph.Graph.size g

let tree_of topology =
  let g = topology_of_string topology in
  if not (Stabgraph.Graph.is_tree g) then
    invalid_arg "Registry: this protocol needs a tree topology (e.g. chain:4, star:5, random:8:1)";
  g

let transform (Entry e) =
  Entry
    {
      label = "trans(" ^ e.label ^ ")";
      protocol = Transformer.randomize e.protocol;
      spec = Transformer.lift_spec e.spec;
      relabel = None;
      describe = e.describe ^ " [transformed per Section 4]";
    }

let base ~name ~topology =
  match name with
  | "token-ring" ->
    let n = ring_size topology in
    Entry
      {
        label = Printf.sprintf "token-ring(n=%d)" n;
        protocol = Stabalgo.Token_ring.make ~n;
        spec = Stabalgo.Token_ring.spec ~n;
        relabel = None;
        describe = "Algorithm 1: weak-stabilizing token circulation on anonymous rings";
      }
  | "leader-tree" ->
    let g = tree_of topology in
    Entry
      {
        label = Printf.sprintf "leader-tree(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Leader_tree.make g;
        spec = Stabalgo.Leader_tree.spec g;
        relabel = Some (Stabalgo.Leader_tree.relabel g);
        describe = "Algorithm 2: weak-stabilizing leader election on anonymous trees";
      }
  | "two-bool" ->
    Entry
      {
        label = "two-bool";
        protocol = Stabalgo.Two_bool.make ();
        spec = Stabalgo.Two_bool.spec;
        relabel = None;
        describe = "Algorithm 3: two-process rendezvous requiring synchrony";
      }
  | "centers" ->
    let g = tree_of topology in
    Entry
      {
        label = Printf.sprintf "centers(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Centers.make g;
        spec = Stabalgo.Centers.spec g;
        relabel = None;
        describe = "BGKP self-stabilizing tree center finding";
      }
  | "center-leader" ->
    let g = tree_of topology in
    Entry
      {
        label = Printf.sprintf "center-leader(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Center_leader.make g;
        spec = Stabalgo.Center_leader.spec g;
        relabel = None;
        describe = "log N-bit weak-stabilizing leader election via tree centers";
      }
  | "dijkstra" ->
    let n = ring_size topology in
    Entry
      {
        label = Printf.sprintf "dijkstra(n=%d)" n;
        protocol = Stabalgo.Dijkstra_kstate.make ~n ();
        spec = Stabalgo.Dijkstra_kstate.spec ~n;
        relabel = None;
        describe = "Dijkstra's K-state self-stabilizing rooted token ring";
      }
  | "herman" ->
    let n = ring_size topology in
    Entry
      {
        label = Printf.sprintf "herman(n=%d)" n;
        protocol = Stabalgo.Herman.make ~n;
        spec = Stabalgo.Herman.spec ~n;
        relabel = None;
        describe = "Herman's probabilistic synchronous token ring";
      }
  | "dijkstra-3state" ->
    let n = ring_size topology in
    Entry
      {
        label = Printf.sprintf "dijkstra-3state(n=%d)" n;
        protocol = Stabalgo.Dijkstra_three.make ~n;
        spec = Stabalgo.Dijkstra_three.spec ~n;
        relabel = None;
        describe = "Dijkstra's three-state mutual exclusion (two distinguished machines)";
      }
  | "coloring" ->
    let g = topology_of_string topology in
    Entry
      {
        label = Printf.sprintf "coloring(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Coloring.make g;
        spec = Stabalgo.Coloring.spec g;
        relabel = None;
        describe = "greedy (Delta+1)-coloring: self-stabilizing centrally, weak distributed";
      }
  | "matching" ->
    let g = topology_of_string topology in
    Entry
      {
        label = Printf.sprintf "matching(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Matching.make g;
        spec = Stabalgo.Matching.spec g;
        relabel = None;
        describe = "Hsu-Huang maximal matching (determinized)";
      }
  | "bfs-tree" ->
    let g = topology_of_string topology in
    Entry
      {
        label = Printf.sprintf "bfs-tree(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Bfs_tree.make g;
        spec = Stabalgo.Bfs_tree.spec g;
        relabel = None;
        describe = "rooted self-stabilizing BFS spanning tree";
      }
  | "mis" ->
    let g = topology_of_string topology in
    Entry
      {
        label = Printf.sprintf "mis(n=%d)" (Stabgraph.Graph.size g);
        protocol = Stabalgo.Mis.make g;
        spec = Stabalgo.Mis.spec g;
        relabel = None;
        describe = "maximal independent set: self-stabilizing centrally, weak distributed";
      }
  | other -> invalid_arg ("Registry: unknown protocol " ^ other)

let find ~name ~topology ?(transformed = false) () =
  let entry = base ~name ~topology in
  if transformed then transform entry else entry

let names =
  [
    "bfs-tree";
    "center-leader";
    "centers";
    "coloring";
    "dijkstra";
    "dijkstra-3state";
    "herman";
    "leader-tree";
    "matching";
    "mis";
    "token-ring";
    "two-bool";
  ]
