(* The graph kernel against naive references on random small digraphs.

   Checker, Markov and Onthefly all traverse through Digraph, so the
   cross-checks between them (Theorem 7, on-the-fly vs the full
   checker) no longer test a traversal independently. Here every pass
   is compared with a list-based fixpoint over the same edge lists that
   shares no code with the kernel. Graphs have self-loops and repeated
   edges; [mark] and [keep] are random node sets.

   Each property runs on both row sources: on edge lists stored as
   [Edges], and on factored graphs stored as [Subsets], whose [adj] is
   the subset sums listed here in ascending mask order. A last property
   holds every pass on a factored graph to its answer on the same
   successors materialized as [Edges]. *)

open Stabcore

type case = {
  adj : int list array;
  mark : bool array;
  keep : bool array;
  deltas : int list array option;  (** [Some] for a factored graph *)
}

let nodes c = Array.length c.adj

let gen =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    array_size (return n) (list_size (int_bound 3) (int_bound (n - 1))) >>= fun adj ->
    array_size (return n) bool >>= fun mark ->
    array_size (return n) bool >|= fun keep -> { adj; mark; keep; deltas = None })

(* [u + sum of the deltas mask m selects], for m = 1 .. 2^k - 1: the
   [Subsets] row, spelled out independently of the kernel. *)
let subset_sums u deltas =
  let d = Array.of_list deltas in
  List.init ((1 lsl Array.length d) - 1) (fun m ->
      let m = m + 1 in
      let sum = ref u in
      Array.iteri (fun j dj -> if m land (1 lsl j) <> 0 then sum := !sum + dj) d;
      !sum)

(* Up to four candidate deltas per node, each kept only if every subset
   sum with the deltas kept before it stays a node, so rows have up to
   15 successors, with repeats when a delta is 0 or two sums meet. *)
let gen_subsets =
  QCheck.Gen.(
    int_range 1 9 >>= fun n ->
    array_size (return n) (list_size (int_bound 4) (int_range (-(n - 1)) (n - 1)))
    >>= fun candidates ->
    let deltas =
      Array.mapi
        (fun u cands ->
          List.fold_left
            (fun kept d ->
              let fits v = v + d >= 0 && v + d < n in
              if fits u && List.for_all fits (subset_sums u kept) then kept @ [ d ] else kept)
            [] cands)
        candidates
    in
    array_size (return n) bool >>= fun mark ->
    array_size (return n) bool >|= fun keep ->
    { adj = Array.mapi subset_sums deltas; mark; keep; deltas = Some deltas })

let print c =
  let ints l = String.concat "," (List.map string_of_int l) in
  let set s = ints (List.filter (fun v -> s.(v)) (List.init (Array.length s) Fun.id)) in
  let row u l = Printf.sprintf "%d->%s" u (ints l) in
  let deltas =
    match c.deltas with
    | None -> ""
    | Some d -> Printf.sprintf " deltas=[%s]" (String.concat "; " (List.mapi row (Array.to_list d)))
  in
  Printf.sprintf "adj=[%s]%s mark={%s} keep={%s}"
    (String.concat "; " (List.mapi row (Array.to_list c.adj)))
    deltas (set c.mark) (set c.keep)

let arb = QCheck.make ~print gen
let arb_subsets = QCheck.make ~print gen_subsets

(* Rows of lists, packed as [Digraph.t] rows of either source. *)
let pack n rows make =
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun u l -> off.(u + 1) <- off.(u) + List.length l) rows;
  let entries = Digraph.create_edges ~nodes:n off.(n) in
  List.iteri (Digraph.set_target entries) (List.concat (Array.to_list rows));
  { Digraph.n; off; rows = make entries }

(* The edge lists as [Edges], whatever the case's source. *)
let csr c = pack (nodes c) c.adj (fun e -> Digraph.Edges e)

(* The case's own graph: factored when it has deltas. *)
let graph c =
  match c.deltas with
  | None -> csr c
  | Some d -> pack (nodes c) d (fun e -> Digraph.Subsets e)

let succs g v =
  let out = ref [] in
  Digraph.iter_succ g v (fun w -> out := w :: !out);
  List.rev !out

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

let qcheck_reverse (name, arb) =
  QCheck.Test.make ~count:300 ~name:(name ^ "reverse flips every edge, rows ascending") arb
    (fun c ->
      let r = Digraph.reverse (graph c) in
      let flipped = ref [] in
      for v = 0 to r.n - 1 do
        let row = succs r v in
        if row <> List.sort compare row then QCheck.Test.fail_reportf "row %d not ascending" v;
        List.iter (fun u -> flipped := (u, v) :: !flipped) row
      done;
      List.sort compare !flipped = List.sort compare (edges c))

(* [reaches] decides the backward reach set forward, over SCCs, so it
   is held to the same fixpoint as the BFS on the reverse. *)
let qcheck_backward (name, arb) =
  QCheck.Test.make ~count:500 ~name:(name ^ "backward distances and reach match the fixpoint")
    arb (fun c ->
      let g = graph c in
      let expected = naive_distances ~backward:true c ~seeds:c.mark in
      let reach_set = Array.map (fun d -> d <> max_int) expected in
      Digraph.distances (Digraph.reverse g) ~seeds:c.mark = expected
      && Digraph.reach (Digraph.reverse g) ~seeds:c.mark = reach_set
      && Digraph.reaches g ~target:c.mark = reach_set)

let qcheck_forward_closure (name, arb) =
  QCheck.Test.make ~count:500
    ~name:(name ^ "forward closure inside a predicate matches the fixpoint") arb (fun c ->
      let within v = c.keep.(v) in
      let expected = naive_distances ~within ~backward:false c ~seeds:c.mark in
      Digraph.distances ~within (graph c) ~seeds:c.mark = expected
      && Digraph.reach ~within (graph c) ~seeds:c.mark
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

let qcheck_cycle_outside (name, arb) =
  QCheck.Test.make ~count:500
    ~name:(name ^ "cycle outside a set exists iff the fixpoint finds one, else heights match")
    arb (fun c ->
      let n = nodes c in
      let outside v = not c.mark.(v) in
      let paths = naive_paths c outside in
      let exists = List.exists (fun v -> paths.(v).(v)) (List.init n Fun.id) in
      let heights = Digraph.heights_outside (graph c) ~inside:c.mark in
      let cycle = Digraph.cycle_outside (graph c) ~inside:c.mark in
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

let qcheck_sccs (name, arb) =
  QCheck.Test.make ~count:500
    ~name:(name ^ "SCC partition and completion order match the fixpoint") arb (fun c ->
      let n = nodes c in
      let kept v = c.keep.(v) in
      let paths = naive_paths c kept in
      let same u v = u = v || (paths.(u).(v) && paths.(v).(u)) in
      let expected =
        List.filter kept (List.init n Fun.id)
        |> List.map (fun u -> List.filter (fun v -> kept v && same u v) (List.init n Fun.id))
        |> List.sort_uniq compare
      in
      let comps = Digraph.sccs ~keep:kept (graph c) in
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
      && List.map Array.to_list (Digraph.sccs (graph c))
         |> List.concat |> List.sort compare = List.init n Fun.id)

(* Every pass answers the same on a factored graph as on its subset
   sums materialized as edge lists: the same witnesses, heights and
   component order, since both walk each row in the same order. *)
let qcheck_subsets_match_edges =
  QCheck.Test.make ~count:500 ~name:"subsets: every pass matches the materialized edges"
    arb_subsets (fun c ->
      let f = graph c and e = csr c in
      let within v = c.keep.(v) and keep v = c.keep.(v) in
      let reverse g =
        let r = Digraph.reverse g in
        List.init r.n (succs r)
      in
      List.init f.n (succs f) = Array.to_list c.adj
      && List.init f.n (Digraph.out_degree f) = List.map List.length (Array.to_list c.adj)
      && Digraph.edge_count f = Digraph.edge_count e
      && List.for_all
           (fun v -> Digraph.exists_succ f v (Array.get c.mark) = Digraph.exists_succ e v (Array.get c.mark))
           (List.init f.n Fun.id)
      && Digraph.distances ~within f ~seeds:c.mark = Digraph.distances ~within e ~seeds:c.mark
      && Digraph.distances f ~seeds:c.mark = Digraph.distances e ~seeds:c.mark
      && Digraph.reach ~within f ~seeds:c.mark = Digraph.reach ~within e ~seeds:c.mark
      && Digraph.heights_outside f ~inside:c.mark = Digraph.heights_outside e ~inside:c.mark
      && Digraph.cycle_outside f ~inside:c.mark = Digraph.cycle_outside e ~inside:c.mark
      && Digraph.sccs ~keep f = Digraph.sccs ~keep e
      && Digraph.sccs f = Digraph.sccs e
      && Digraph.reaches f ~target:c.mark = Digraph.reaches e ~target:c.mark
      && reverse f = reverse e)

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

(* Every per-node array must have one entry per node, neither fewer
   nor more, and the refusal names the pass. *)
let test_rejects_wrong_lengths () =
  let g = csr { adj = [| [ 1 ]; [] |]; mark = [||]; keep = [||]; deltas = None } in
  let rejects name what arr f =
    Alcotest.check_raises
      (Printf.sprintf "%s, length %d" name (Array.length arr))
      (Invalid_argument
         (Printf.sprintf "Digraph.%s: %s has length %d, the graph 2 nodes" name what
            (Array.length arr)))
      (fun () -> ignore (f arr))
  in
  List.iter
    (fun arr ->
      rejects "reaches" "target" arr (fun target -> Digraph.reaches g ~target);
      rejects "first_unreaching" "target" arr (fun target -> Digraph.first_unreaching g ~target);
      rejects "distances" "seeds" arr (fun seeds -> Digraph.distances g ~seeds);
      rejects "reach" "seeds" arr (fun seeds -> Digraph.reach g ~seeds);
      rejects "heights_outside" "inside" arr (fun inside -> Digraph.heights_outside g ~inside);
      rejects "cycle_outside" "inside" arr (fun inside -> Digraph.cycle_outside g ~inside))
    [ [| false |]; [| false; false; true |] ];
  (* A one-entry legitimate set on a two-state chain is refused, not
     read as "state 0 cannot reach [L]". *)
  Alcotest.check_raises "prob-1 on a short legitimate set"
    (Invalid_argument "Digraph.first_unreaching: target has length 1, the graph 2 nodes")
    (fun () ->
      ignore
        (Markov.converges_with_prob_one
           (Markov.of_rows [| [ (1, 1.0) ]; [] |])
           ~legitimate:[| false |]))

(* The blocks of C \ L and their reach flags against a fresh
   [Digraph.sccs ~keep] of the outside nodes and the full-graph pass
   [Digraph.reaches] replaced: the same blocks in the same order,
   members ascending, each flagged iff its members reach the set. The
   flat reads ([block_start], [member]) list the same sequence. *)
let qcheck_blocks (name, arb) =
  QCheck.Test.make ~count:500
    ~name:(name ^ "blocks outside a set = SCCs + reference reaches, in order") arb (fun c ->
      let g = graph c in
      let b = Digraph.blocks_outside g ~inside:c.mark in
      let count = Digraph.block_count b in
      let blocks = List.init count (Digraph.block_members b) in
      let reach = Reaches_reference.reaches (graph c) ~target:c.mark in
      let flat = Array.init (Digraph.block_start b count) (Digraph.member b) in
      blocks = Digraph.sccs ~keep:(fun v -> not c.mark.(v)) (graph c)
      && Digraph.block_start b 0 = 0
      && List.for_all
           (fun k ->
             let lo = Digraph.block_start b k and hi = Digraph.block_start b (k + 1) in
             let block = Array.sub flat lo (hi - lo) in
             block = Digraph.block_members b k
             && Array.for_all (fun v -> reach.(v) = Digraph.block_reaches b k) block)
           (List.init count Fun.id)
      && Digraph.reaches g ~target:c.mark = reach)

(* The least node the reference pass leaves unmarked, on a fresh
   graph and again on the memo the first call left. *)
let qcheck_first_unreaching (name, arb) =
  QCheck.Test.make ~count:500
    ~name:(name ^ "first unreaching node = least node the reference reach misses") arb
    (fun c ->
      let expected =
        Array.find_index not (Reaches_reference.reaches (graph c) ~target:c.mark)
      in
      let g = graph c in
      Digraph.first_unreaching g ~target:c.mark = expected
      && Digraph.first_unreaching g ~target:(Array.copy c.mark) = expected)

(* A one-entry memo keeps one answer, keyed by graph identity and the
   contents of [inside]. Two graphs of one size (a factored graph and
   the reverse of its edges) and two sets are queried in a random
   interleaving through one reused [inside] array, which is
   overwritten before each call and flipped after it; [ask] scribbles
   over whatever fresh array the call returns. Each answer must equal
   a call on a fresh copy, and [counter] must tick exactly when the
   (graph, set) pair differs from the call before. [ask variant g
   inside] calls one of the memo's two readers. *)
let qcheck_memo ~name ~counter ask =
  let ops = QCheck.Gen.(list_size (int_range 1 12) (triple bool bool bool)) in
  let arb_memo =
    QCheck.make
      ~print:(fun (c, l) -> Printf.sprintf "%s ops=%d" (print c) (List.length l))
      QCheck.Gen.(pair gen_subsets ops)
  in
  QCheck.Test.make ~count:300 ~name arb_memo (fun (c, ops) ->
      let n = nodes c in
      let fresh = [| (fun () -> graph c); (fun () -> Digraph.reverse (csr c)) |] in
      let graphs = Array.map (fun make -> make ()) fresh in
      let sets = [| c.mark; c.keep |] in
      let expected =
        Array.map
          (fun make ->
            Array.map
              (fun s -> Array.map (fun variant -> ask variant (make ()) (Array.copy s)) [| false; true |])
              sets)
          fresh
      in
      let passes () = Stabobs.Obs.Counter.value counter in
      Test_differential.counting @@ fun () ->
      let before = passes () and searches = ref 0 and last = ref None in
      let inside = Array.make n false in
      let answers_match =
        List.for_all
          (fun (which, set, variant) ->
            let gi = Bool.to_int which and si = Bool.to_int set in
            let key = (gi, sets.(si)) in
            if !last <> Some key then incr searches;
            last := Some key;
            Array.blit sets.(si) 0 inside 0 n;
            let ok = ask variant graphs.(gi) inside = expected.(gi).(si).(Bool.to_int variant) in
            Array.iteri (fun v b -> inside.(v) <- not b) inside;
            ok)
          ops
      in
      answers_match && passes () - before = !searches)

(* The heights, or the cycle alone; the returned heights are
   overwritten once copied. *)
let qcheck_heights_memo =
  qcheck_memo ~name:"subsets: heights memo answers as a fresh pass"
    ~counter:Stabobs.Obs.checker_heights_passes (fun heights g inside ->
      if heights then begin
        let got = Digraph.heights_outside g ~inside in
        let copy = Result.map Array.copy got in
        Result.iter (fun h -> Array.fill h 0 (Array.length h) 7777) got;
        (copy, None)
      end
      else (Error [], Digraph.cycle_outside g ~inside))

(* The blocks with their flags, or the reach set; the returned reach
   set is overwritten once copied. *)
let qcheck_blocks_memo =
  qcheck_memo ~name:"subsets: blocks memo answers as a fresh pass"
    ~counter:Stabobs.Obs.checker_reaches_passes (fun blocks g inside ->
      if blocks then begin
        let b = Digraph.blocks_outside g ~inside in
        Ok
          (List.init (Digraph.block_count b) (fun k ->
               (Digraph.block_members b k, Digraph.block_reaches b k)))
      end
      else begin
        let got = Digraph.reaches g ~target:inside in
        let copy = Array.copy got in
        Array.fill got 0 (Array.length got) false;
        Error copy
      end)

(* The three ways a remembered decomposition must be dropped, one at a
   time, each counted: another set on the same graph, the same set on
   another graph (built alike, so only its identity differs), and the
   caller's own [inside] array changed in place. *)
let test_blocks_memo_recomputes () =
  let adj = [| [ 1 ]; [ 0; 2 ]; [ 3 ]; [ 2 ]; [ 4 ] |] in
  let case mark = { adj; mark; keep = mark; deltas = None } in
  let l1 = [| false; false; true; false; false |] and l2 = [| false; false; false; false; true |] in
  let g1 = csr (case l1) and g2 = csr (case l1) in
  let passes () = Stabobs.Obs.Counter.value Stabobs.Obs.checker_reaches_passes in
  let builds () = Stabobs.Obs.Counter.value Stabobs.Obs.checker_scc_builds in
  Test_differential.counting @@ fun () ->
  let step label g inside ~runs =
    let p0 = passes () and b0 = builds () in
    let got = Digraph.reaches g ~target:inside in
    Alcotest.(check int) (label ^ ": passes") runs (passes () - p0);
    Alcotest.(check int) (label ^ ": SCC builds") runs (builds () - b0);
    Alcotest.(check (array bool)) (label ^ ": answer")
      (Reaches_reference.reaches (csr (case inside)) ~target:(Array.copy inside))
      got
  in
  let inside = Array.copy l1 in
  step "first call" g1 inside ~runs:1;
  step "same graph and set" g1 (Array.copy l1) ~runs:0;
  step "another set" g1 l2 ~runs:1;
  step "another graph" g2 l2 ~runs:1;
  step "back to the first set" g2 inside ~runs:1;
  Array.blit l2 0 inside 0 (Array.length l2);
  step "inside mutated in place" g2 inside ~runs:1;
  Alcotest.(check (array bool)) "reaches {2}" [| true; true; true; true; false |]
    (Digraph.reaches g1 ~target:l1);
  Alcotest.(check (array bool)) "reaches {4}" [| false; false; false; false; true |]
    (Digraph.reaches g1 ~target:l2)

(* Once the blocks are remembered, the first unreaching node costs one
   read per block: on a 100,000-node path into a two-node cycle, far
   less than the 800 KB a copied target array alone would take. *)
let test_first_unreaching_allocation () =
  let n = 100_000 in
  let adj = Array.init n (fun u -> if u = n - 1 then [ n - 2 ] else [ u + 1 ]) in
  let target = Array.make n false in
  let g = csr { adj; mark = target; keep = target; deltas = None } in
  ignore (Digraph.blocks_outside g ~inside:target);
  let before = Gc.allocated_bytes () in
  let first = Digraph.first_unreaching g ~target in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check (option int)) "node 0 misses the empty set" (Some 0) first;
  if bytes > 1024.0 then Alcotest.failf "first_unreaching allocated %.0f bytes" bytes

let suite =
  Alcotest.
    [
      test_case "create_edges rejects 2^31 nodes" `Quick test_create_edges_rejects_wide;
      test_case "set_target/target round-trip" `Quick test_target_round_trip;
      test_case "per-node arrays must have length n" `Quick test_rejects_wrong_lengths;
      test_case "blocks memo recomputes on a new graph, set or inside" `Quick
        test_blocks_memo_recomputes;
    ]
  @ List.map Qcheck_seeded.to_alcotest
      (List.concat_map
         (fun source ->
           [
             qcheck_reverse source;
             qcheck_backward source;
             qcheck_forward_closure source;
             qcheck_cycle_outside source;
             qcheck_sccs source;
             qcheck_blocks source;
           ])
         [ ("", arb); ("subsets: ", arb_subsets) ]
      @ [ qcheck_subsets_match_edges; qcheck_heights_memo; qcheck_blocks_memo ]
      @ List.map qcheck_first_unreaching [ ("", arb); ("subsets: ", arb_subsets) ])
  @ [
      Alcotest.test_case "first_unreaching allocates no per-node array" `Quick
        test_first_unreaching_allocation;
    ]
