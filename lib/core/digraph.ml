type edges = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let create_edges ~nodes k =
  if nodes > Int32.to_int Int32.max_int then
    invalid_arg (Printf.sprintf "Digraph.create_edges: %d nodes do not fit in 32 bits" nodes);
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout k

(* Annotated so that both compile to a plain 32-bit load or store. *)
let[@inline] target (dst : edges) i = Int32.to_int (Bigarray.Array1.get dst i)
let[@inline] set_target (dst : edges) i v = Bigarray.Array1.set dst i (Int32.of_int v)

let edges_of_buffers ~nodes (bufs : int Growbuf.t list) =
  let total = List.fold_left (fun acc (b : _ Growbuf.t) -> acc + b.len) 0 bufs in
  let dst = create_edges ~nodes total in
  let pos = ref 0 in
  List.iter
    (fun (b : _ Growbuf.t) ->
      for i = 0 to b.len - 1 do
        set_target dst (!pos + i) b.data.(i)
      done;
      pos := !pos + b.len;
      b.data <- [||];
      b.len <- 0)
    bufs;
  dst

type rows = Edges of edges | Subsets of edges
type t = { n : int; off : int array; rows : rows }

(* Row walking, written once for both sources and inlined into every
   pass, so no edge costs a call. A pass walks the row of [u] with a
   cursor [i] from [first g u] up to [stop g u], exclusive, and reads
   the target at [i] with [next_target g u i prev], where [prev] is the
   target at the cursor before ([u] itself before the first).
   - [Edges]: the cursor indexes the target array; [prev] is unused.
   - [Subsets]: the row holds k deltas and the cursor is a mask over
     them, 1 .. 2^k - 1 ascending; the target is [u] plus the deltas
     the mask selects. Mask [i - 1] becomes [i] by clearing its
     trailing ones and setting the bit above them, so the target is
     [prev] minus those deltas plus one: two reads on average. *)
let[@inline] first g u = match g.rows with Edges _ -> g.off.(u) | Subsets _ -> 1

let[@inline] stop g u =
  match g.rows with
  | Edges _ -> g.off.(u + 1)
  | Subsets _ -> 1 lsl (g.off.(u + 1) - g.off.(u))

let[@inline] next_target g u i prev =
  match g.rows with
  | Edges dst -> target dst i
  | Subsets deltas ->
    let j = ref g.off.(u) and sum = ref prev and carry = ref (i - 1) in
    while !carry land 1 = 1 do
      sum := !sum - target deltas !j;
      incr j;
      carry := !carry lsr 1
    done;
    !sum + target deltas !j

(* The depth-first passes keep the top frame's last target in a local,
   for [next_target], and park it beside the frame's cursor only while
   a child frame runs above it; an [Edges] graph needs none. *)
let last_targets g = match g.rows with Edges _ -> [||] | Subsets _ -> Array.make g.n 0

let[@inline] park_last g last depth v =
  match g.rows with Edges _ -> () | Subsets _ -> last.(depth) <- v

let[@inline] parked_last g last depth =
  match g.rows with Edges _ -> 0 | Subsets _ -> last.(depth)

let out_degree g u = stop g u - first g u

let edge_count g =
  match g.rows with
  | Edges _ -> g.off.(g.n)
  | Subsets _ ->
    let total = ref 0 in
    for u = 0 to g.n - 1 do
      total := !total + out_degree g u
    done;
    !total

let iter_succ g u f =
  let prev = ref u in
  for i = first g u to stop g u - 1 do
    let v = next_target g u i !prev in
    prev := v;
    f v
  done

let exists_succ g u f =
  let prev = ref u and i = ref (first g u) and hit = ref false in
  let hi = stop g u in
  while (not !hit) && !i < hi do
    let v = next_target g u !i !prev in
    prev := v;
    hit := f v;
    incr i
  done;
  !hit

let check_length fn g what a =
  if Array.length a <> g.n then
    invalid_arg
      (Printf.sprintf "Digraph.%s: %s has length %d, the graph %d nodes" fn what
         (Array.length a) g.n)

(* Counting sort of the edges by target, scanning sources in ascending
   order, so each predecessor row comes out ascending. *)
let reverse g =
  Stabobs.Obs.Counter.incr Stabobs.Obs.checker_reverse_builds;
  Stabobs.Obs.span "checker.reverse" @@ fun () ->
  let n = g.n in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let prev = ref u in
    for i = first g u to stop g u - 1 do
      let v = next_target g u i !prev in
      prev := v;
      off.(v + 1) <- off.(v + 1) + 1
    done
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let dst = create_edges ~nodes:n off.(n) in
  let cursor = Array.sub off 0 n in
  for u = 0 to n - 1 do
    let prev = ref u in
    for i = first g u to stop g u - 1 do
      let v = next_target g u i !prev in
      prev := v;
      set_target dst cursor.(v) u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { n; off; rows = Edges dst }

(* Every node enters the queue at most once, so an n-slot array is the
   whole queue. *)
let distances ?(within = fun _ -> true) g ~seeds =
  check_length "distances" g "seeds" seeds;
  let dist = Array.make g.n max_int in
  let queue = Array.make g.n 0 in
  let tail = ref 0 in
  let enter v d =
    dist.(v) <- d;
    queue.(!tail) <- v;
    incr tail
  in
  Array.iteri (fun v seed -> if seed && within v then enter v 0) seeds;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let prev = ref u in
    for i = first g u to stop g u - 1 do
      let v = next_target g u i !prev in
      prev := v;
      if dist.(v) = max_int && within v then enter v (dist.(u) + 1)
    done
  done;
  dist

let reach ?within g ~seeds =
  check_length "reach" g "seeds" seeds;
  Array.map (fun d -> d <> max_int) (distances ?within g ~seeds)

(* Iterative depth-first search: frame [k] of the current path is node
   [path.(k)] with its next successor at [cursor.(k)]. In a [Subsets]
   row the target before the cursor is [prev] for the top frame and
   [last.(k)] for a frame below it. Entering [v] from an edge leaves
   [prev = v], both the parent's last target and the child's start.
   [mark.(v)] is 0 while [v] is unvisited and 1 + its height once it is
   finished, which is what an edge into [v] adds to its source's
   height; an inside node starts at 1, as if finished at height 0. So
   each edge reads one mark, as a plain cycle search would. On the path
   a mark is negative: minus what the successors scanned so far give
   the node (at least 1), and finishing flips its sign. *)
let heights_pass g ~inside =
  Stabobs.Obs.Counter.incr Stabobs.Obs.checker_heights_passes;
  let mark = Array.init g.n (fun v -> if inside.(v) then 1 else 0) in
  let path = Array.make g.n 0 and cursor = Array.make g.n 0 and last = last_targets g in
  let depth = ref 0 and prev = ref 0 in
  let enter v =
    mark.(v) <- -1;
    path.(!depth) <- v;
    cursor.(!depth) <- first g v;
    incr depth
  in
  (* [u] is on the path: a successor marked [m] makes its mark >= 1 + m. *)
  let raise_to u m = if m + 1 > -mark.(u) then mark.(u) <- -(m + 1) in
  let exception Cycle of int list in
  try
    for start = 0 to g.n - 1 do
      if mark.(start) = 0 then begin
        enter start;
        prev := start;
        while !depth > 0 do
          let top = !depth - 1 in
          let u = path.(top) and i = cursor.(top) in
          if i = stop g u then begin
            mark.(u) <- -mark.(u);
            depth := top;
            if top > 0 then begin
              raise_to path.(top - 1) mark.(u);
              prev := parked_last g last (top - 1)
            end
          end
          else begin
            cursor.(top) <- i + 1;
            let v = next_target g u i !prev in
            prev := v;
            let m = mark.(v) in
            if m < 0 then begin
              (* Back edge u -> v: the path from v to u closes it. *)
              let rec collect k acc =
                if path.(k) = v then v :: acc else collect (k - 1) (path.(k) :: acc)
              in
              raise_notrace (Cycle (collect top []))
            end
            else if m = 0 then begin
              park_last g last top v;
              enter v
            end
            else raise_to u m
          end
        done
      end
    done;
    Array.map_inplace (fun m -> m - 1) mark;
    Ok mark
  with Cycle cycle -> Error cycle

(* A one-entry memo of a pass over the nodes outside [inside]: the
   last answer, with [inside] packed to bits beside it. The ephemeron
   holds the graph weakly: an answer lives only as long as its graph,
   and a graph dropped elsewhere is not kept alive here. Domains may
   race on the slot; each entry is immutable, so the loser only evicts
   the winner's. *)
type 'a memo = (t, Bitset.t * 'a) Ephemeron.K1.t option Atomic.t

let same_set bits inside =
  let rec go v = v < 0 || (Bitset.mem bits v = inside.(v) && go (v - 1)) in
  go (Array.length inside - 1)

let remember (memo : _ memo) pass g ~inside =
  match Option.bind (Atomic.get memo) (fun entry -> Ephemeron.K1.query entry g) with
  | Some (bits, answer) when same_set bits inside -> answer
  | _ ->
    let answer = pass g ~inside in
    let bits = Bitset.create g.n in
    Array.iteri (fun v b -> if b then Bitset.set bits v) inside;
    Atomic.set memo (Some (Ephemeron.K1.make g (bits, answer)));
    answer

let last_heights : (int array, int list) result memo = Atomic.make None

let heights_outside g ~inside =
  check_length "heights_outside" g "inside" inside;
  match remember last_heights heights_pass g ~inside with
  | Ok heights -> Ok (Array.copy heights)
  | Error _ as cycle -> cycle

let cycle_outside g ~inside =
  check_length "cycle_outside" g "inside" inside;
  match remember last_heights heights_pass g ~inside with
  | Ok _ -> None
  | Error cycle -> Some cycle

(* Iterative Tarjan over the nodes [keep] accepts, with the DFS frames
   in [work]/[cursor], and [prev]/[last], as in [heights_pass]. One
   read of [mark.(v)] classifies every edge target, and [keep] is asked
   once per node: [mark] is 0 for an unvisited node, 1 + its DFS index
   while it is on the Tarjan stack, and negative once it is settled:
   -1 outside [keep], and -(2 id + 2 + r) in completed component [id],
   where [r] is 1 iff the component reaches a node outside [keep]. So a
   settled target is odd iff an edge into it makes its source reach
   such a node; that edge sets its frame's [hit] byte. A child frame
   hands its byte to its parent on return, since the child is either
   in the parent's component or a completed component the parent has
   an edge into, so a root's byte is its whole component's [r]. *)
let tarjan g ~keep =
  Stabobs.Obs.Counter.incr Stabobs.Obs.checker_scc_builds;
  let n = g.n in
  let mark = Array.init n (fun v -> if keep v then 0 else -1) and low = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let work = Array.make n 0 and cursor = Array.make n 0 and last = last_targets g in
  let hit = Bytes.make n '\000' in
  let depth = ref 0 and prev = ref 0 in
  let ncomp = ref 0 and next_index = ref 0 in
  let enter v =
    mark.(v) <- !next_index + 1;
    low.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    work.(!depth) <- v;
    cursor.(!depth) <- first g v;
    Bytes.set hit !depth '\000';
    incr depth
  in
  for root = 0 to n - 1 do
    if mark.(root) = 0 then begin
      enter root;
      prev := root;
      while !depth > 0 do
        let top = !depth - 1 in
        let u = work.(top) and i = cursor.(top) in
        if i < stop g u then begin
          cursor.(top) <- i + 1;
          let v = next_target g u i !prev in
          prev := v;
          let m = mark.(v) in
          if m = 0 then begin
            park_last g last top v;
            enter v
          end
          else if m > 0 then low.(u) <- min low.(u) (m - 1)
          else if m land 1 = 1 then Bytes.set hit top '\001'
        end
        else begin
          depth := top;
          let r = Bytes.get hit top in
          if low.(u) = mark.(u) - 1 then begin
            (* Pop down to [u], which settles last. *)
            let settled = -((2 * !ncomp) + 2 + Char.code r) in
            while mark.(u) > 0 do
              decr sp;
              mark.(stack.(!sp)) <- settled
            done;
            incr ncomp
          end;
          if top > 0 then begin
            let parent = work.(top - 1) in
            low.(parent) <- min low.(parent) low.(u);
            if r = '\001' then Bytes.set hit (top - 1) r;
            prev := parked_last g last (top - 1)
          end
        end
      done
    end
  done;
  (mark, !ncomp)

type blocks = { members : int array; start : int array; reaching : Bitset.t }

(* The components of [tarjan] bucketed by id, members ascending within
   each, with the reach bits lifted out of the marks. *)
let bucket (mark, ncomp) =
  let id m = (-m - 2) lsr 1 in
  let start = Array.make (ncomp + 1) 0 and reaching = Bitset.create ncomp in
  Array.iter (fun m -> if m < -1 then start.(id m + 1) <- start.(id m + 1) + 1) mark;
  for k = 0 to ncomp - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let members = Array.make start.(ncomp) 0 and filled = Array.sub start 0 ncomp in
  Array.iteri
    (fun v m ->
      if m < -1 then begin
        let k = id m in
        members.(filled.(k)) <- v;
        filled.(k) <- filled.(k) + 1;
        if m land 1 = 1 then Bitset.set reaching k
      end)
    mark;
  { members; start; reaching }

let block_count b = Array.length b.start - 1
let block_reaches b k = Bitset.mem b.reaching k
let block_members b k = Array.sub b.members b.start.(k) (b.start.(k + 1) - b.start.(k))
let block_start b k = b.start.(k)
let member b i = b.members.(i)

let sccs ?(keep = fun _ -> true) g =
  let b = bucket (tarjan g ~keep) in
  List.init (block_count b) (block_members b)

let outside_pass g ~inside =
  Stabobs.Obs.Counter.incr Stabobs.Obs.checker_reaches_passes;
  Stabobs.Obs.span "checker.sccs" @@ fun () ->
  bucket (tarjan g ~keep:(fun v -> not inside.(v)))

let last_blocks : blocks memo = Atomic.make None

let blocks_outside g ~inside =
  check_length "blocks_outside" g "inside" inside;
  remember last_blocks outside_pass g ~inside

let reaches g ~target =
  check_length "reaches" g "target" target;
  let b = remember last_blocks outside_pass g ~inside:target in
  let marked = Array.copy target in
  for k = 0 to block_count b - 1 do
    if block_reaches b k then
      for i = b.start.(k) to b.start.(k + 1) - 1 do
        marked.(b.members.(i)) <- true
      done
  done;
  marked
