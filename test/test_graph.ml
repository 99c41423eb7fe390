(* Unit and property tests for the anonymous-network graph library. *)

open Stabgraph

let test_ring_structure () =
  let g = Graph.ring 6 in
  Alcotest.(check int) "size" 6 (Graph.size g);
  Alcotest.(check bool) "is ring" true (Graph.is_ring g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Graph.iter_nodes (fun p -> Alcotest.(check int) "degree 2" 2 (Graph.degree g p)) g;
  Alcotest.(check int) "opposite nodes" 3 (Graph.dist g 0 3)

let test_ring_two () =
  let g = Graph.ring 2 in
  Alcotest.(check int) "edge count via degrees" 1 (List.length (Graph.edges g));
  Alcotest.(check bool) "not a ring (single edge)" false (Graph.is_ring g)

let test_chain_structure () =
  let g = Graph.chain 5 in
  Alcotest.(check bool) "is tree" true (Graph.is_tree g);
  Alcotest.(check int) "end to end" 4 (Graph.dist g 0 4);
  Alcotest.(check (list int)) "center" [ 2 ] (Graph.centers g)

let test_chain_even_two_centers () =
  let g = Graph.chain 4 in
  Alcotest.(check (list int)) "two adjacent centers" [ 1; 2 ] (Graph.centers g);
  Alcotest.(check int) "centers adjacent" 1 (Graph.dist g 1 2)

let test_star () =
  let g = Graph.star 7 in
  Alcotest.(check int) "center degree" 6 (Graph.degree g 0);
  Alcotest.(check (list int)) "center" [ 0 ] (Graph.centers g);
  Alcotest.(check int) "leaf to leaf" 2 (Graph.dist g 1 6);
  Alcotest.(check int) "max degree" 6 (Graph.max_degree g)

let test_of_edges_validation () =
  let inv name f = Alcotest.check_raises name (Invalid_argument name) f in
  ignore inv;
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.of_edges: duplicate edge")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: node out of range")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_local_indexes () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (2, 3) ] in
  (* neighbors are sorted by global id, so local indexes are stable *)
  Alcotest.(check (array int)) "neighbors of 0" [| 1; 2; 3 |] (Graph.neighbors g 0);
  Alcotest.(check int) "local index" 1 (Graph.local_index g 0 2);
  Alcotest.(check int) "neighbor by index" 2 (Graph.neighbor g 0 1);
  Alcotest.check_raises "not a neighbor" Not_found (fun () ->
      ignore (Graph.local_index g 1 2))

let test_distances () =
  let g = Graph.chain 6 in
  Alcotest.(check int) "dist ends" 5 (Graph.dist g 0 5);
  Alcotest.(check int) "dist self" 0 (Graph.dist g 3 3)

(* Counts of unlabelled trees on n nodes: OEIS A000055. *)
let test_all_trees_counts () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "trees on %d nodes" n)
        expected
        (List.length (Graph.all_trees n)))
    [ (1, 1); (2, 1); (3, 1); (4, 2); (5, 3); (6, 6); (7, 11) ]

let test_all_trees_are_trees () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          Alcotest.(check bool) "tree" true (Graph.is_tree g);
          Alcotest.(check int) "size" n (Graph.size g))
        (Graph.all_trees n))
    [ 2; 3; 4; 5; 6; 7 ]

(* A tree's canonical form, independent of the library's: the least
   AHU encoding over every choice of root. *)
let canonical_form g =
  let rec ahu parent root =
    Array.to_list (Graph.neighbors g root)
    |> List.filter (fun q -> q <> parent)
    |> List.map (ahu root) |> List.sort compare |> String.concat ""
    |> Printf.sprintf "(%s)"
  in
  List.fold_left min (ahu (-1) 0) (List.init (Graph.size g) (ahu (-1)))

let test_all_trees_pairwise_nonisomorphic () =
  let trees = Array.of_list (Graph.all_trees 6) in
  Array.iteri
    (fun i gi ->
      Array.iteri
        (fun j gj ->
          if i < j && canonical_form gi = canonical_form gj then
            Alcotest.failf "trees %d and %d are isomorphic" i j)
        trees)
    trees

(* Property 1 of the paper: a tree has one center or two neighboring
   centers. *)
let test_property_one () =
  List.iter
    (fun n ->
      List.iter
        (fun g ->
          match Graph.centers g with
          | [ _ ] -> ()
          | [ c1; c2 ] -> Alcotest.(check int) "two centers neighbors" 1 (Graph.dist g c1 c2)
          | cs -> Alcotest.failf "tree with %d centers" (List.length cs))
        (Graph.all_trees n))
    [ 2; 3; 4; 5; 6; 7 ]

let test_random_tree_is_tree () =
  let rng = Stabrng.Rng.create 99 in
  for _ = 1 to 50 do
    let n = 1 + Stabrng.Rng.int rng 40 in
    let g = Graph.random_tree rng n in
    if not (Graph.is_tree g) then Alcotest.failf "random_tree %d not a tree" n;
    Alcotest.(check int) "size" n (Graph.size g)
  done

let test_fold_iter () =
  let g = Graph.ring 5 in
  Alcotest.(check int) "fold counts nodes" 5 (Graph.fold_nodes (fun _ acc -> acc + 1) g 0);
  let total = ref 0 in
  Graph.iter_nodes (fun p -> total := !total + p) g;
  Alcotest.(check int) "iter sums ids" 10 !total

let qcheck_random_tree_edge_count =
  QCheck.Test.make ~count:100 ~name:"random tree has n-1 edges"
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, n) ->
      let rng = Stabrng.Rng.create seed in
      let g = Graph.random_tree rng n in
      List.length (Graph.edges g) = n - 1)

let qcheck_bfs_triangle_inequality =
  QCheck.Test.make ~count:50 ~name:"distance triangle inequality on random trees"
    QCheck.(triple small_int (int_range 3 15) (int_range 0 1000))
    (fun (seed, n, salt) ->
      let rng = Stabrng.Rng.create (seed + salt) in
      let g = Graph.random_tree rng n in
      let p = Stabrng.Rng.int rng n
      and q = Stabrng.Rng.int rng n
      and r = Stabrng.Rng.int rng n in
      Graph.dist g p r <= Graph.dist g p q + Graph.dist g q r)

let suite =
  [
    Alcotest.test_case "ring structure" `Quick test_ring_structure;
    Alcotest.test_case "ring of two" `Quick test_ring_two;
    Alcotest.test_case "chain structure" `Quick test_chain_structure;
    Alcotest.test_case "chain even centers" `Quick test_chain_even_two_centers;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "of_edges validation" `Quick test_of_edges_validation;
    Alcotest.test_case "local indexes" `Quick test_local_indexes;
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "all_trees counts (A000055)" `Quick test_all_trees_counts;
    Alcotest.test_case "all_trees are trees" `Quick test_all_trees_are_trees;
    Alcotest.test_case "all_trees pairwise distinct" `Quick test_all_trees_pairwise_nonisomorphic;
    Alcotest.test_case "random_tree is tree" `Quick test_random_tree_is_tree;
    Alcotest.test_case "fold/iter" `Quick test_fold_iter;
    Qcheck_seeded.to_alcotest qcheck_random_tree_edge_count;
    Alcotest.test_case "Property 1 (tree centers)" `Quick test_property_one;
    Qcheck_seeded.to_alcotest qcheck_bfs_triangle_inequality;
  ]

let test_reorder_neighbors () =
  let g = Graph.chain 3 in
  let g' = Graph.reorder_neighbors g 1 [| 2; 0 |] in
  Alcotest.(check (array int)) "custom order" [| 2; 0 |] (Graph.neighbors g' 1);
  Alcotest.(check (array int)) "others untouched" [| 1 |] (Graph.neighbors g' 0);
  Alcotest.(check int) "local index follows order" 1 (Graph.local_index g' 1 0);
  (* The original graph is not mutated. *)
  Alcotest.(check (array int)) "original intact" [| 0; 2 |] (Graph.neighbors g 1);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Graph.reorder_neighbors: order is not a permutation of the neighbors")
    (fun () -> ignore (Graph.reorder_neighbors g 1 [| 0; 0 |]));
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Graph.reorder_neighbors: node out of range") (fun () ->
      ignore (Graph.reorder_neighbors g 9 [| 0 |]))

let reorder_suite =
  [ Alcotest.test_case "reorder neighbors" `Quick test_reorder_neighbors ]

let suite = suite @ reorder_suite
