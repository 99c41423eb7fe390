type t = { n : int; off : int array; dst : int array }

(* Counting sort of the edges by target, scanning sources in ascending
   order, so each predecessor row comes out ascending. *)
let reverse g =
  let n = g.n in
  let nedges = g.off.(n) in
  let off = Array.make (n + 1) 0 in
  for i = 0 to nedges - 1 do
    let v = g.dst.(i) in
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let dst = Array.make nedges 0 in
  let cursor = Array.sub off 0 n in
  for u = 0 to n - 1 do
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.dst.(i) in
      dst.(cursor.(v)) <- u;
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
      let v = g.dst.(i) in
      if dist.(v) = max_int && within v then enter v (dist.(u) + 1)
    done
  done;
  dist

let reach ?within g ~seeds = Array.map (fun d -> d <> max_int) (distances ?within g ~seeds)

(* Iterative depth-first search: frame [k] of the current path is node
   [path.(k)] with its next successor at [cursor.(k)]. color: 0
   unvisited, 1 on the current path, 2 finished. *)
let cycle_outside g ~inside =
  let color = Array.make g.n 0 in
  let path = Array.make g.n 0 and cursor = Array.make g.n 0 in
  let depth = ref 0 in
  let enter v =
    color.(v) <- 1;
    path.(!depth) <- v;
    cursor.(!depth) <- g.off.(v);
    incr depth
  in
  let exception Cycle of int list in
  try
    for start = 0 to g.n - 1 do
      if (not inside.(start)) && color.(start) = 0 then begin
        enter start;
        while !depth > 0 do
          let top = !depth - 1 in
          let u = path.(top) and i = cursor.(top) in
          if i = g.off.(u + 1) then begin
            color.(u) <- 2;
            depth := top
          end
          else begin
            cursor.(top) <- i + 1;
            let v = g.dst.(i) in
            if not inside.(v) then
              if color.(v) = 1 then begin
                (* Back edge u -> v: the path from v to u closes it. *)
                let rec collect k acc =
                  if path.(k) = v then v :: acc else collect (k - 1) (path.(k) :: acc)
                in
                raise_notrace (Cycle (collect top []))
              end
              else if color.(v) = 0 then enter v
          end
        done
      end
    done;
    None
  with Cycle cycle -> Some cycle

(* Iterative Tarjan with the DFS frames in [work]/[cursor] as in
   [cycle_outside]. A completed component gets the next id in [comp];
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
          let v = g.dst.(i) in
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
