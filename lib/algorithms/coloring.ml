module Graph = Stabgraph.Graph

(* The guard, the statement and the legitimacy predicate run on every
   engine step and every expanded configuration, so they scan the
   adjacency in place with [Graph.degree]/[Graph.neighbor]: no list is
   built and no neighbour array copied. *)

(* Whether some neighbour of [p] has color [c]. *)
let neighbor_has g (cfg : int array) p c =
  let k = ref (Graph.degree g p - 1) in
  while !k >= 0 && cfg.(Graph.neighbor g p !k) <> c do
    decr k
  done;
  !k >= 0

let in_conflict g cfg p = neighbor_has g cfg p cfg.(p)

let proper g cfg =
  let n = Graph.size g and p = ref 0 in
  while !p < n && not (in_conflict g cfg !p) do
    incr p
  done;
  !p = n

let smallest_free g cfg p =
  let c = ref 0 in
  while neighbor_has g cfg p !c do
    incr c
  done;
  !c

let make ?colors g =
  let colors = Option.value colors ~default:(Graph.max_degree g + 1) in
  if colors <= Graph.max_degree g then
    invalid_arg "Coloring.make: need colors > max degree";
  let recolor : int Stabcore.Protocol.action =
    {
      label = "A";
      guard = (fun cfg p -> in_conflict g cfg p);
      result = (fun cfg p -> [ (smallest_free g cfg p, 1.0) ]);
    }
  in
  {
    Stabcore.Protocol.name =
      Printf.sprintf "coloring(n=%d,k=%d)" (Graph.size g) colors;
    graph = g;
    domain = (fun _ -> List.init colors Fun.id);
    actions = [ recolor ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let spec g = Stabcore.Spec.make ~name:"proper-coloring" (proper g)
