(* The graph kernel against naive references on random small digraphs.

   Checker, Markov and Onthefly all traverse through Digraph, so the
   cross-checks between them (Theorem 7, on-the-fly vs the full
   checker) no longer test a traversal independently. Here every pass
   is compared with a list-based fixpoint over the same edge lists that
   shares no code with the kernel. Graphs have self-loops and repeated
   edges; [mark] and [keep] are random node sets. *)

open Stabcore

type case = { adj : int list array; mark : bool array; keep : bool array }

let nodes c = Array.length c.adj

let gen =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    array_size (return n) (list_size (int_bound 3) (int_bound (n - 1))) >>= fun adj ->
    array_size (return n) bool >>= fun mark ->
    array_size (return n) bool >|= fun keep -> { adj; mark; keep })

let print c =
  let ints l = String.concat "," (List.map string_of_int l) in
  let set s = ints (List.filter (fun v -> s.(v)) (List.init (Array.length s) Fun.id)) in
  let row u l = Printf.sprintf "%d->%s" u (ints l) in
  Printf.sprintf "adj=[%s] mark={%s} keep={%s}"
    (String.concat "; " (List.mapi row (Array.to_list c.adj)))
    (set c.mark) (set c.keep)

let arb = QCheck.make ~print gen

let csr c =
  let n = nodes c in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u l -> off.(u + 1) <- off.(u) + List.length l) c.adj;
  let dst = Digraph.create_edges ~nodes:n off.(n) in
  List.iteri (Digraph.set_target dst) (List.concat (Array.to_list c.adj));
  { Digraph.n; off; dst }

let edges c =
  List.concat (List.mapi (fun u l -> List.map (fun v -> (u, v)) l) (Array.to_list c.adj))

(* Relax every edge until nothing changes: the shortest path from a
   seed, or from a node to a seed when [backward]. *)
let naive_distances ?(within = fun _ -> true) ~backward c ~seeds =
  let n = nodes c in
  let d = Array.init n (fun v -> if seeds.(v) && within v then 0 else max_int) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (u, v) ->
        let src, tgt = if backward then (v, u) else (u, v) in
        if d.(src) <> max_int && within tgt && d.(src) + 1 < d.(tgt) then begin
          d.(tgt) <- d.(src) + 1;
          changed := true
        end)
      (edges c)
  done;
  d

(* [reach.(u).(v)]: a path of at least one edge from u to v through
   nodes [ok] accepts (endpoints included). *)
let naive_paths c ok =
  let n = nodes c in
  let reach = Array.make_matrix n n false in
  List.iter (fun (u, v) -> if ok u && ok v then reach.(u).(v) <- true) (edges c);
  let changed = ref true in
  while !changed do
    changed := false;
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if reach.(u).(v) then
          for w = 0 to n - 1 do
            if reach.(v).(w) && not reach.(u).(w) then begin
              reach.(u).(w) <- true;
              changed := true
            end
          done
      done
    done
  done;
  reach

let qcheck_reverse =
  QCheck.Test.make ~count:300 ~name:"reverse flips every edge, rows ascending" arb (fun c ->
      let r = Digraph.reverse (csr c) in
      let flipped = ref [] in
      for v = 0 to r.n - 1 do
        let row =
          List.init (r.off.(v + 1) - r.off.(v)) (fun k -> Digraph.target r.dst (r.off.(v) + k))
        in
        if row <> List.sort compare row then QCheck.Test.fail_reportf "row %d not ascending" v;
        List.iter (fun u -> flipped := (u, v) :: !flipped) row
      done;
      List.sort compare !flipped = List.sort compare (edges c))

let qcheck_backward =
  QCheck.Test.make ~count:500 ~name:"backward distances and reach match the fixpoint" arb
    (fun c ->
      let g = csr c in
      let expected = naive_distances ~backward:true c ~seeds:c.mark in
      Digraph.distances (Digraph.reverse g) ~seeds:c.mark = expected
      && Digraph.reach (Digraph.reverse g) ~seeds:c.mark
         = Array.map (fun d -> d <> max_int) expected)

let qcheck_forward_closure =
  QCheck.Test.make ~count:500 ~name:"forward closure inside a predicate matches the fixpoint"
    arb (fun c ->
      let within v = c.keep.(v) in
      let expected = naive_distances ~within ~backward:false c ~seeds:c.mark in
      Digraph.distances ~within (csr c) ~seeds:c.mark = expected
      && Digraph.reach ~within (csr c) ~seeds:c.mark
         = Array.map (fun d -> d <> max_int) expected)

(* Longest-path value iteration outside [mark], on an acyclic outside
   subgraph: 0 inside and at a node without successors, else the
   maximum over the successors of 1 (inside) or 1 + its value. *)
let naive_heights c =
  let h = Array.make (nodes c) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (u, v) ->
        let via = if c.mark.(v) then 1 else 1 + h.(v) in
        if (not c.mark.(u)) && via > h.(u) then begin
          h.(u) <- via;
          changed := true
        end)
      (edges c)
  done;
  h

let qcheck_cycle_outside =
  QCheck.Test.make ~count:500
    ~name:"cycle outside a set exists iff the fixpoint finds one, else heights match" arb
    (fun c ->
      let n = nodes c in
      let outside v = not c.mark.(v) in
      let paths = naive_paths c outside in
      let exists = List.exists (fun v -> paths.(v).(v)) (List.init n Fun.id) in
      let heights = Digraph.heights_outside (csr c) ~inside:c.mark in
      let cycle = Digraph.cycle_outside (csr c) ~inside:c.mark in
      match heights with
      | Ok h -> (not exists) && cycle = None && h = naive_heights c
      | Error cycle' ->
        let arr = Array.of_list cycle' in
        let len = Array.length arr in
        let is_edge u v = List.mem v c.adj.(u) in
        exists && cycle = Some cycle' && len > 0
        && List.for_all outside cycle'
        && List.length (List.sort_uniq compare cycle') = len
        && List.for_all
             (fun k -> is_edge arr.(k) arr.((k + 1) mod len))
             (List.init len Fun.id))

let qcheck_sccs =
  QCheck.Test.make ~count:500 ~name:"SCC partition and completion order match the fixpoint"
    arb (fun c ->
      let n = nodes c in
      let kept v = c.keep.(v) in
      let paths = naive_paths c kept in
      let same u v = u = v || (paths.(u).(v) && paths.(v).(u)) in
      let expected =
        List.filter kept (List.init n Fun.id)
        |> List.map (fun u -> List.filter (fun v -> kept v && same u v) (List.init n Fun.id))
        |> List.sort_uniq compare
      in
      let comps = Digraph.sccs ~keep:kept (csr c) in
      let got = List.map Array.to_list comps in
      let position = Array.make n (-1) in
      List.iteri (fun i m -> List.iter (fun v -> position.(v) <- i) m) got;
      (* Completion order: an edge leaving a component lands in an
         earlier one (or outside [keep]). *)
      let sinks_first =
        List.for_all
          (fun (u, v) -> (not (kept u && kept v)) || position.(v) <= position.(u))
          (edges c)
      in
      List.for_all (fun m -> m = List.sort compare m) got
      && List.sort compare got = expected
      && sinks_first
      && List.map Array.to_list (Digraph.sccs (csr c))
         |> List.concat |> List.sort compare = List.init n Fun.id)

(* A node past [Int32.max_int] would wrap on the narrowing, so the
   allocator refuses the graph before it allocates: the 2^40 entries
   asked for here (4 TiB) would fail with [Out_of_memory] first if the
   check came after the allocation. *)
let test_create_edges_rejects_wide () =
  Alcotest.check_raises "2^31 nodes"
    (Invalid_argument "Digraph.create_edges: 2147483648 nodes do not fit in 32 bits")
    (fun () -> ignore (Digraph.create_edges ~nodes:(1 lsl 31) (1 lsl 40)));
  Alcotest.(check int)
    "2^31 - 1 nodes" 1
    (Bigarray.Array1.dim (Digraph.create_edges ~nodes:(Int32.to_int Int32.max_int) 1))

let test_target_round_trip () =
  let top = Int32.to_int Int32.max_int in
  let dst = Digraph.create_edges ~nodes:top 3 in
  List.iteri (Digraph.set_target dst) [ 0; 1; top ];
  Alcotest.(check (list int)) "targets" [ 0; 1; top ] (List.init 3 (Digraph.target dst))

let suite =
  Alcotest.
    [
      test_case "create_edges rejects 2^31 nodes" `Quick test_create_edges_rejects_wide;
      test_case "set_target/target round-trip" `Quick test_target_round_trip;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_reverse; qcheck_backward; qcheck_forward_closure; qcheck_cycle_outside; qcheck_sccs ]
