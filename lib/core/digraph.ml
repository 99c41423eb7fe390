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

type t = { n : int; off : int array; dst : edges }

(* Counting sort of the edges by target, scanning sources in ascending
   order, so each predecessor row comes out ascending. *)
let reverse g =
  let n = g.n in
  let nedges = g.off.(n) in
  let off = Array.make (n + 1) 0 in
  for i = 0 to nedges - 1 do
    let v = target g.dst i in
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let dst = create_edges ~nodes:n nedges in
  let cursor = Array.sub off 0 n in
  for u = 0 to n - 1 do
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = target g.dst i in
      set_target dst cursor.(v) u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { n; off; dst }

(* Every node enters the queue at most once, so an n-slot array is the
   whole queue. *)
let distances ?(within = fun _ -> true) g ~seeds =
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
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = target g.dst i in
      if dist.(v) = max_int && within v then enter v (dist.(u) + 1)
    done
  done;
  dist

let reach ?within g ~seeds = Array.map (fun d -> d <> max_int) (distances ?within g ~seeds)

(* Iterative depth-first search: frame [k] of the current path is node
   [path.(k)] with its next successor at [cursor.(k)]. [mark.(v)] is 0
   while [v] is unvisited and 1 + its height once it is finished, which
   is what an edge into [v] adds to its source's height; an inside node
   starts at 1, as if finished at height 0. So each edge reads one
   mark, as a plain cycle search would. On the path a mark is negative:
   minus what the successors scanned so far give the node (at least 1),
   and finishing flips its sign. *)
let heights_outside g ~inside =
  let mark = Array.init g.n (fun v -> if inside.(v) then 1 else 0) in
  let path = Array.make g.n 0 and cursor = Array.make g.n 0 in
  let depth = ref 0 in
  let enter v =
    mark.(v) <- -1;
    path.(!depth) <- v;
    cursor.(!depth) <- g.off.(v);
    incr depth
  in
  (* [u] is on the path: a successor marked [m] makes its mark >= 1 + m. *)
  let raise_to u m = if m + 1 > -mark.(u) then mark.(u) <- -(m + 1) in
  let exception Cycle of int list in
  try
    for start = 0 to g.n - 1 do
      if mark.(start) = 0 then begin
        enter start;
        while !depth > 0 do
          let top = !depth - 1 in
          let u = path.(top) and i = cursor.(top) in
          if i = g.off.(u + 1) then begin
            mark.(u) <- -mark.(u);
            depth := top;
            if top > 0 then raise_to path.(top - 1) mark.(u)
          end
          else begin
            cursor.(top) <- i + 1;
            let v = target g.dst i in
            let m = mark.(v) in
            if m < 0 then begin
              (* Back edge u -> v: the path from v to u closes it. *)
              let rec collect k acc =
                if path.(k) = v then v :: acc else collect (k - 1) (path.(k) :: acc)
              in
              raise_notrace (Cycle (collect top []))
            end
            else if m = 0 then enter v
            else raise_to u m
          end
        done
      end
    done;
    Array.map_inplace (fun m -> m - 1) mark;
    Ok mark
  with Cycle cycle -> Error cycle

let cycle_outside g ~inside =
  match heights_outside g ~inside with Ok _ -> None | Error cycle -> Some cycle

(* Iterative Tarjan with the DFS frames in [work]/[cursor] as in
   [heights_outside]. A completed component gets the next id in [comp];
   members are bucketed by id at the end, which lists them ascending. *)
let sccs ?(keep = fun _ -> true) g =
  let n = g.n in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Bitset.create n in
  let stack = Array.make n 0 and sp = ref 0 in
  let work = Array.make n 0 and cursor = Array.make n 0 in
  let depth = ref 0 in
  let comp = Array.make n (-1) and ncomp = ref 0 in
  let next_index = ref 0 in
  let enter v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    Bitset.set on_stack v;
    work.(!depth) <- v;
    cursor.(!depth) <- g.off.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if keep root && index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let top = !depth - 1 in
        let u = work.(top) and i = cursor.(top) in
        if i < g.off.(u + 1) then begin
          cursor.(top) <- i + 1;
          let v = target g.dst i in
          if keep v then
            if index.(v) < 0 then enter v
            else if Bitset.mem on_stack v then low.(u) <- min low.(u) index.(v)
        end
        else begin
          depth := top;
          if low.(u) = index.(u) then begin
            let rec pop () =
              decr sp;
              let v = stack.(!sp) in
              Bitset.clear on_stack v;
              comp.(v) <- !ncomp;
              if v <> u then pop ()
            in
            pop ();
            incr ncomp
          end;
          if top > 0 then begin
            let parent = work.(top - 1) in
            low.(parent) <- min low.(parent) low.(u)
          end
        end
      done
    end
  done;
  let size = Array.make !ncomp 0 in
  Array.iter (fun id -> if id >= 0 then size.(id) <- size.(id) + 1) comp;
  let members = Array.map (fun k -> Array.make k 0) size in
  let filled = Array.make !ncomp 0 in
  Array.iteri
    (fun v id ->
      if id >= 0 then begin
        members.(id).(filled.(id)) <- v;
        filled.(id) <- filled.(id) + 1
      end)
    comp;
  Array.to_list members
