type randomization = Central_uniform | Distributed_uniform | Sync

(* A chain is a {!Digraph} graph [g] plus a per-row weight reader
   [weights]: row [c] is entries [g.off.(c) .. g.off.(c + 1) - 1] of
   [g]'s row array, merged on demand by {!merge} into its targets,
   ascending, with weights summing to 1.
   - {!of_space} keeps the checker's graph itself. In a [Subsets] row (a
     deterministic protocol on a full space under the distributed
     class) the entries are the k per-process deltas of [c], and every
     non-empty subset of them weighs 1/(2^k - 1). In an [Edges] row
     (the central and synchronous classes, quotients and randomized
     protocols) they are the step targets of [c] in transition order,
     and [weights c ws] writes their weights, {!Checker.row_weights}:
     1/g for each of a configuration's g steps, times the outcome's
     probability for a randomized protocol.
   - {!of_rows} stores [Edges] rows already merged, their weights in an
     array beside them.
   A terminal configuration's row is empty and merges to the absorbing
   (c, 1.0), so the solvers never special-case absorption. [widest] is
   the most entries a row stores. *)
type t = { g : Digraph.t; weights : int -> float array -> unit; widest : int }

let states chain = chain.g.n

(* A local read of a target array, so that it compiles to a plain
   32-bit load: the kernel's {!Digraph.target} is a call across a
   module boundary. *)
let[@inline] col (cols : Digraph.edges) i = Int32.to_int (Bigarray.Array1.get cols i)

(* The most entries a row of k stored entries merges to: the 2^k - 1
   subset sums of k deltas, or the k targets of k edges, but never more
   targets than the chain has states; a terminal row is the one
   absorbing entry. *)
let merged_bound chain k =
  match chain.g.rows with
  | Digraph.Subsets _ -> min chain.g.n (max 1 ((1 lsl k) - 1))
  | Digraph.Edges _ -> min chain.g.n (max 1 k)

(* The stable LSD radix passes that sort an [Edges] row of a chain of
   [n] states on its targets: as few passes of at most 8 bits as cover
   the bits of n - 1, the largest target, with those bits split evenly
   among them. A chain of one state needs none. *)
let radix_digits n =
  let bits = ref 0 in
  while (n - 1) lsr !bits > 0 do
    incr bits
  done;
  let passes = (!bits + 7) / 8 in
  (passes, if passes = 0 then 0 else (!bits + passes - 1) / passes)

(* Rows of at most this many stored entries are insertion-sorted:
   below it the radix passes' bucket sweeps cost more than the shifts
   of an insertion sort. Timed on shuffled rows of 8 to 128 keys over
   the two bench quotients' 5,934 and 2,192 states, the two break even
   at about 40 keys. *)
let short_row = 40

(* Scratch for merging rows of at most [k] stored entries. A [Subsets]
   row keeps its sorted subset sums so far, with their multiplicities,
   in [keys]/[mult] and merges into [keys']/[mult']; the sums are
   distinct codes of the chain, so [merged_bound] bounds them. An
   [Edges] row sorts its arrival keys in [keys], [keys'] being the
   radix passes' other buffer and [buckets] their digit counts, and
   reads its weights into [ws]. *)
type merger = {
  mutable keys : int array;
  mutable mult : int array;
  mutable keys' : int array;
  mutable mult' : int array;
  ws : float array;
  passes : int;
  width : int;
  buckets : int array;
}

let merger chain k =
  match chain.g.rows with
  | Digraph.Subsets _ ->
    let size = merged_bound chain k + 1 in
    let ints () = Array.make size 0 in
    {
      keys = ints ();
      mult = ints ();
      keys' = ints ();
      mult' = ints ();
      ws = [||];
      passes = 0;
      width = 0;
      buckets = [||];
    }
  | Digraph.Edges _ ->
    let passes, width = radix_digits chain.g.n and radix = k > short_row in
    {
      keys = Array.make k 0;
      mult = [||];
      keys' = (if radix then Array.make k 0 else [||]);
      mult' = [||];
      ws = Array.create_float k;
      passes;
      width;
      buckets = (if radix then Array.make (1 lsl width) 0 else [||]);
    }

(* Writes the absorbing row (c, 1.0) of a terminal configuration. *)
let absorbing c (cols : Digraph.edges) (w : float array) pos =
  Bigarray.Array1.set cols pos (Int32.of_int c);
  w.(pos) <- 1.0;
  pos + 1

(* Writes [Subsets] row [c], merged and ascending, at [pos] of
   [cols]/[w], and returns the position after it. The targets are
   the subset sums of [c]'s k deltas: starting from the empty sum [c],
   each delta d merges the sorted sums with themselves shifted by d,
   adding the multiplicities of sums that meet, so the sums come out
   ascending in O(2^k) with a 2^k scratch. A zero delta meets every
   sum and just doubles the multiplicities. The empty subset is no
   step, so [c]'s own multiplicity drops by one: with z zero deltas
   among distinct-digit ones, every other sum has multiplicity 2^z and
   the self-loop 2^z - 1. Each subset weighs 1/(2^k - 1), the weight
   {!Checker.row_weights} gives it, and a sum of multiplicity m weighs
   the left fold of m copies of it, what summing its subsets in
   arrival order gives. *)
let merge_subsets m ~off ~deltas c cols w pos =
  let first = off.(c) and k = off.(c + 1) - off.(c) in
  if k = 0 then absorbing c cols w pos
  else begin
    m.keys.(0) <- c;
    m.mult.(0) <- 1;
    let len = ref 1 in
    for j = first to first + k - 1 do
      let d = col deltas j in
      let keys = m.keys and mult = m.mult and n = !len in
      if d = 0 then
        for i = 0 to n - 1 do
          mult.(i) <- 2 * mult.(i)
        done
      else begin
        let keys' = m.keys' and mult' = m.mult' in
        let i = ref 0 and i' = ref 0 and o = ref 0 in
        while !i < n && !i' < n do
          let a = keys.(!i) and b = keys.(!i') + d in
          if a < b then begin
            keys'.(!o) <- a;
            mult'.(!o) <- mult.(!i);
            incr i
          end
          else if b < a then begin
            keys'.(!o) <- b;
            mult'.(!o) <- mult.(!i');
            incr i'
          end
          else begin
            keys'.(!o) <- a;
            mult'.(!o) <- mult.(!i) + mult.(!i');
            incr i;
            incr i'
          end;
          incr o
        done;
        while !i < n do
          keys'.(!o) <- keys.(!i);
          mult'.(!o) <- mult.(!i);
          incr i;
          incr o
        done;
        while !i' < n do
          keys'.(!o) <- keys.(!i') + d;
          mult'.(!o) <- mult.(!i');
          incr i';
          incr o
        done;
        len := !o;
        m.keys <- keys';
        m.mult <- mult';
        m.keys' <- keys;
        m.mult' <- mult
      end
    done;
    let unit = 1.0 /. float_of_int ((1 lsl k) - 1) in
    let last_m = ref 1 and last_w = ref unit and e = ref pos in
    for i = 0 to !len - 1 do
      let target = m.keys.(i) in
      let times = if target = c then m.mult.(i) - 1 else m.mult.(i) in
      if times > 0 then begin
        if times <> !last_m then begin
          last_m := times;
          last_w := unit;
          for _ = 2 to times do
            last_w := !last_w +. unit
          done
        end;
        Bigarray.Array1.set cols !e (Int32.of_int target);
        w.(!e) <- !last_w;
        incr e
      end
    done;
    !e
  end

(* An arrival key is a target above its arrival index in the row, so
   that an int sort orders equal targets by arrival. Targets are below
   2^31 ({!Digraph.create_edges}), and a row of 2^31 entries would need
   48 GiB of scratch, so a key fits in 62 bits. *)
let arrival_bits = 31
let arrival_mask = (1 lsl arrival_bits) - 1

(* Insertion sort of the keys [a.(0 .. k - 1)], for short rows. *)
let insertion_sort (a : int array) k =
  for i = 1 to k - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Sorts the arrival keys [m.keys.(0 .. k - 1)] by target and returns
   the array that holds them sorted: [m.keys], or [m.keys'] after an
   odd number of passes. Each pass counts one digit of the targets,
   lowest first, turns the counts into bucket starts and scatters the
   keys front to back, so keys of equal digits keep their order; after
   the last pass equal targets are in arrival order, which is the keys
   sorted as ints. Rows off the checker's graph arrive in any order:
   nearly descending in a central row, shuffled by canonicalization in
   a quotient's distributed row. *)
let radix_sort m k =
  let src = ref m.keys and dst = ref m.keys' in
  let count = m.buckets and digit = (1 lsl m.width) - 1 in
  for p = 0 to m.passes - 1 do
    let a = !src and b = !dst and shift = arrival_bits + (p * m.width) in
    Array.fill count 0 (digit + 1) 0;
    for i = 0 to k - 1 do
      let d = (a.(i) lsr shift) land digit in
      count.(d) <- count.(d) + 1
    done;
    let start = ref 0 in
    for d = 0 to digit do
      let c = count.(d) in
      count.(d) <- !start;
      start := !start + c
    done;
    for i = 0 to k - 1 do
      let v = a.(i) in
      let d = (v lsr shift) land digit in
      b.(count.(d)) <- v;
      count.(d) <- count.(d) + 1
    done;
    src := b;
    dst := a
  done;
  !src

(* Writes [Edges] row [c] as [merge_subsets] does: its k targets, each
   weighing what [weights] writes, keyed by arrival and sorted, so that
   equal targets come together in arrival order and each run is summed
   left to right. *)
let merge_edges m ~off ~targets ~weights c cols w pos =
  let first = off.(c) and k = off.(c + 1) - off.(c) in
  if k = 0 then absorbing c cols w pos
  else begin
    weights c m.ws;
    let keys = m.keys in
    for i = 0 to k - 1 do
      keys.(i) <- (col targets (first + i) lsl arrival_bits) lor i
    done;
    let keys =
      if k <= short_row then begin
        insertion_sort keys k;
        keys
      end
      else radix_sort m k
    in
    let e = ref pos and i = ref 0 in
    while !i < k do
      let target = keys.(!i) lsr arrival_bits in
      let sum = ref m.ws.(keys.(!i) land arrival_mask) in
      incr i;
      while !i < k && keys.(!i) lsr arrival_bits = target do
        sum := !sum +. m.ws.(keys.(!i) land arrival_mask);
        incr i
      done;
      Bigarray.Array1.set cols !e (Int32.of_int target);
      w.(!e) <- !sum;
      incr e
    done;
    !e
  end

(* Writes row [c], merged and ascending, at [pos] of [cols]/[w], and
   returns the position after it. *)
let merge m chain c cols w pos =
  let off = chain.g.off in
  match chain.g.rows with
  | Digraph.Subsets deltas -> merge_subsets m ~off ~deltas c cols w pos
  | Digraph.Edges targets -> merge_edges m ~off ~targets ~weights:chain.weights c cols w pos

(* A reader of the chain's rows of at most [k] stored entries: [read c
   f] merges row [c] into scratch the reader owns and calls [f target
   weight] along it, ascending. A reader serves one domain. *)
let reader chain k =
  let m = merger chain k and size = merged_bound chain k in
  let cols = Digraph.create_edges ~nodes:chain.g.n size and w = Array.create_float size in
  fun c f ->
    for i = 0 to merge m chain c cols w 0 - 1 do
      f (col cols i) w.(i)
    done

(* Scratch sized for the widest row. *)
let rows_reader chain = reader chain chain.widest

let read_list read c =
  let out = ref [] in
  read c (fun c' w -> out := (c', w) :: !out);
  List.rev !out

(* A single row gets scratch sized for itself, not the widest row. *)
let row chain c =
  read_list (reader chain (chain.g.off.(c + 1) - chain.g.off.(c))) c

(* [entries] merged by target, ascending: a stable sort keeps equal
   targets in arrival order, and their weights are summed left to
   right. *)
let merge_entries entries =
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries
  |> List.fold_left
       (fun acc (c, w) ->
         match acc with
         | (c', sum) :: rest when c' = c -> (c, sum +. w) :: rest
         | _ -> (c, w) :: acc)
       []
  |> List.rev

(* Strong-lumpability audit of a quotient chain, enabled by paranoid
   mode: every orbit member of the *full* space must project (through
   rep_of) onto exactly the lumped row its representative got. This is
   the condition making quotient hitting times and absorption
   probabilities equal to the full chain's. Expensive — it expands the
   base space — and therefore gated. The lumped rows are read through
   one reader, so they merge into the same scratch for every full-space
   code. *)
let check_lumpability chain space base rep_of cls =
  let g = Checker.expand base cls in
  let read = rows_reader chain in
  let project entries =
    match entries with
    | [] -> None
    | _ -> Some (merge_entries (List.map (fun (c, w) -> (rep_of.(c), w)) entries))
  in
  let fail c =
    invalid_arg
      (Printf.sprintf
         "Markov.of_space: lumpability violated at full-space code %d (quotient uid \
          %d)"
         c (Statespace.uid space))
  in
  for c = 0 to Statespace.count base - 1 do
    let expected = read_list read rep_of.(c) in
    match project (Checker.weighted_row g c) with
    | None ->
      (* Terminal in the base: its representative must be absorbing. *)
      if expected <> [ (rep_of.(c), 1.0) ] then fail c
    | Some row ->
      if
        List.length row <> List.length expected
        || not
             (List.for_all2
                (fun (i, w) (i', w') -> i = i' && Float.abs (w -. w') <= 1e-9)
                row expected)
      then fail c
  done

let widest_row (g : Digraph.t) =
  let k = ref 0 in
  for c = 0 to g.n - 1 do
    k := max !k (g.off.(c + 1) - g.off.(c))
  done;
  !k

(* The chain is read off the checker's expansion, so a space analysed
   exhaustively and then probabilistically expands its transition
   relation once, not twice. On a quotient space the graph already has
   canonicalized targets, so the very same read-off produces the lumped
   chain; orbit sizes only matter to consumers that average over the
   full space (see {!hitting_stats}). The graph, with
   {!Checker.row_weights} as its weight reader, is the chain: nothing
   is allocated per state. *)
let of_space space randomization =
  Stabobs.Obs.span "markov.of_space" @@ fun () ->
  let cls =
    match randomization with
    | Central_uniform -> Statespace.Central
    | Distributed_uniform -> Statespace.Distributed
    | Sync -> Statespace.Synchronous
  in
  let g = Checker.expand space cls in
  let fwd = Checker.successors g in
  let chain = { g = fwd; weights = Checker.row_weights g; widest = widest_row fwd } in
  (if Symmetry.paranoid_enabled () then
     match Statespace.quotient_view space with
     | None -> ()
     | Some (base, _, rep_of, _) -> check_lumpability chain space base rep_of cls);
  chain

(* Raises [Invalid_argument], naming [fn], unless every row's targets
   are states and its weights are finite, positive and sum to 1. *)
let validate fn rows =
  let n = Array.length rows in
  let fail what = invalid_arg (Printf.sprintf "Markov.%s: %s" fn what) in
  Array.iter
    (fun entries ->
      match entries with
      | [] -> ()
      | _ ->
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 entries in
        List.iter
          (fun (c, w) ->
            if c < 0 || c >= n then fail "target out of range";
            if not (w > 0.0 && Float.is_finite w) then fail "weight not finite and positive")
          entries;
        if Float.abs (total -. 1.0) > 1e-9 then fail "row does not sum to 1")
    rows

(* The rows as an [Edges] chain, stored in the order given with their
   weights in an array beside them. *)
let pack rows =
  let n = Array.length rows in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun c row -> off.(c + 1) <- off.(c) + List.length row) rows;
  let cols = Digraph.create_edges ~nodes:n off.(n) and w = Array.create_float off.(n) in
  Array.iteri
    (fun c row ->
      List.iteri
        (fun i (c', wc) ->
          Bigarray.Array1.set cols (off.(c) + i) (Int32.of_int c');
          w.(off.(c) + i) <- wc)
        row)
    rows;
  let g = { Digraph.n; off; rows = Digraph.Edges cols } in
  let weights c ws = Array.blit w off.(c) ws 0 (off.(c + 1) - off.(c)) in
  { g; weights; widest = widest_row g }

(* Each row is merged once, by [merge_entries], not by the chain's own
   merger, and stored with its weights; reading it merges it again,
   which leaves it as it is. *)
let of_rows rows =
  validate "of_rows" rows;
  pack (Array.map merge_entries rows)

let of_arrivals rows =
  validate "of_arrivals" rows;
  pack rows

let graph chain = chain.g

let reaches chain ~target = Digraph.reaches (graph chain) ~target

let converges_with_prob_one chain ~legitimate =
  Stabobs.Obs.span "markov.prob1" @@ fun () ->
  match Digraph.first_unreaching chain.g ~target:legitimate with
  | None -> Ok ()
  | Some c -> Error c

type sparse_kind = Gauss_seidel | Jacobi

type hitting_method =
  | Exact
  | Sparse of { kind : sparse_kind; tolerance : float; max_sweeps : int }

type solve_stats = { sweeps : int; residual : float; blocks : int }
type solve_outcome = Converged of solve_stats | Max_sweeps of solve_stats

(* Blocked substochastic solve of x = base + P x over the transient
   states, in place in [x]; other entries are boundary values and never
   written. The transient states are the blocks of the kernel's SCC
   decomposition of C \ L ({!Digraph.blocks_outside}, the pass the
   probability-1 check already ran on the same graph and set): all of
   them when [reaching_only] is false, else those that reach L. Blocks
   are solved in the kernel's order, reverse topological, so every
   out-of-block target a block reads is already final: acyclic
   transient parts (self-stabilizing protocols) reduce to exact
   back-substitution, and the work concentrates on the blocks that
   need it.

   A block's rows are merged once, into block-local arrays sized for
   the block whose rows merge to the most entries at most, so the
   merged chain is never held whole. Each row r then splits into a
   constant [const.(r)] (base plus the out-of-block Σ w·x, summed in row
   order), its diagonal [diag.(r)] and its in-block entries, kept at
   [roff.(r) .. roff.(r + 1) - 1] of [cols]/[w] with their targets
   renumbered to block positions. A singleton block is the one
   division x(c) = const / (1 - w_cc) under both methods. A larger
   block is one b×b elimination of (I - Q) x = const under [Exact],
   or diagonal-solved sweeps over its in-block entries under [Sparse],
   which stop on the relative residual
   ||x_{k+1} - x_k||_inf / max(1, ||x||_inf) <= tol; a block exceeding
   [max_sweeps] aborts the remaining blocks and reports [Max_sweeps]
   with the partial iterate left in [x]. A transient state that cannot
   leave itself (w_cc = 1) has no finite solution and does the same. *)
let solve_transient method_ chain ~legitimate ~reaching_only ~base x =
  let n = states chain and off = chain.g.off in
  let blocks = Digraph.blocks_outside chain.g ~inside:legitimate in
  let solved k = (not reaching_only) || Digraph.block_reaches blocks k in
  let lo k = Digraph.block_start blocks k and member = Digraph.member blocks in
  let nblocks = ref 0 and entries = ref 0 and members = ref 0 in
  for k = 0 to Digraph.block_count blocks - 1 do
    if solved k then begin
      let bound = ref 0 in
      for i = lo k to lo (k + 1) - 1 do
        bound := !bound + merged_bound chain (off.(member i + 1) - off.(member i))
      done;
      incr nblocks;
      entries := max !entries !bound;
      members := max !members (lo (k + 1) - lo k)
    end
  done;
  let m = merger chain chain.widest and roff = Array.make (!members + 1) 0 in
  let cols = Digraph.create_edges ~nodes:n !entries and w = Array.create_float !entries in
  let const = Array.create_float !members and diag = Array.create_float !members in
  let xb = Array.create_float !members in
  let x_old =
    match method_ with
    | Sparse { kind = Jacobi; _ } -> Array.create_float !members
    | Sparse { kind = Gauss_seidel; _ } | Exact -> xb
  in
  (* [slot.(c)] is [c]'s position in its block, so [c'] is in the block
     at [first] being loaded iff it sits at its slot there. *)
  let slot = Array.make n 0 in
  let load first bsize =
    for r = 0 to bsize - 1 do
      slot.(member (first + r)) <- r
    done;
    for r = 0 to bsize - 1 do
      let c = member (first + r) in
      if r land 1023 = 1023 then Cancel.poll ();
      let stop = merge m chain c cols w roff.(r) in
      let acc = ref base and self = ref 0.0 and e = ref roff.(r) in
      for i = roff.(r) to stop - 1 do
        let c' = col cols i in
        let j = slot.(c') in
        if c' = c then self := !self +. w.(i)
        else if j < bsize && member (first + j) = c' then begin
          Bigarray.Array1.set cols !e (Int32.of_int j);
          w.(!e) <- w.(i);
          incr e
        end
        else acc := !acc +. (w.(i) *. x.(c'))
      done;
      const.(r) <- !acc;
      diag.(r) <- !self;
      xb.(r) <- x.(c);
      roff.(r + 1) <- !e
    done
  in
  let span =
    match method_ with Exact -> "markov.solve.exact" | Sparse _ -> "markov.solve.sparse"
  in
  Stabobs.Obs.span span ~args:[ ("blocks", Stabobs.Json.Int !nblocks) ] @@ fun () ->
  let total_sweeps = ref 0 in
  let worst = ref 0.0 in
  let failed = ref false in
  (* The one b×b matrix is eliminated in place, with the constants as
     its right-hand side. *)
  let eliminate bsize =
    let a = Stablinalg.Matrix.identity bsize and rhs = Array.sub const 0 bsize in
    for k = 0 to bsize - 1 do
      Stablinalg.Matrix.set a k k (1.0 -. diag.(k));
      for i = roff.(k) to roff.(k + 1) - 1 do
        Stablinalg.Matrix.set a k (col cols i) (-.w.(i))
      done
    done;
    Stablinalg.Matrix.solve_in_place a rhs;
    Array.blit rhs 0 xb 0 bsize
  in
  let sweep_block ~tolerance ~max_sweeps bsize =
    let sweeps = ref 0 in
    let residual = ref infinity in
    while (not (!residual <= tolerance)) && not !failed do
      Cancel.poll ();
      if !sweeps >= max_sweeps then failed := true
      else begin
        incr sweeps;
        if x_old != xb then Array.blit xb 0 x_old 0 bsize;
        let delta = ref 0.0 in
        (* max(1, ||x||_inf) folded into the starting norm. *)
        let norm = ref 1.0 in
        for k = 0 to bsize - 1 do
          let acc = ref const.(k) in
          for i = roff.(k) to roff.(k + 1) - 1 do
            acc := !acc +. (w.(i) *. x_old.(col cols i))
          done;
          let d = 1.0 -. diag.(k) in
          let v =
            if d > 1e-12 then !acc /. d
            else
              (* No leak through the diagonal: the plain fixed-point
                 update, so the block times out instead of dividing by
                 zero. *)
              !acc +. (diag.(k) *. x_old.(k))
          in
          delta := Float.max !delta (Float.abs (v -. xb.(k)));
          norm := Float.max !norm (Float.abs v);
          xb.(k) <- v
        done;
        residual := !delta /. !norm;
        Stabobs.Dist.record Stabobs.Dist.markov_solve_residual !residual
      end
    done;
    Stabobs.Obs.Counter.add Stabobs.Obs.markov_solve_sweeps !sweeps;
    total_sweeps := !total_sweeps + !sweeps;
    worst := Float.max !worst !residual
  in
  let solve_block k =
    let first = lo k in
    let bsize = lo (k + 1) - first in
    load first bsize;
    if bsize = 1 then begin
      let d = 1.0 -. diag.(0) in
      if d > 1e-12 then x.(member first) <- const.(0) /. d else failed := true
    end
    else begin
      (Stabobs.Obs.span "markov.solve.block" ~args:[ ("size", Stabobs.Json.Int bsize) ]
       @@ fun () ->
       match method_ with
       | Exact -> eliminate bsize
       | Sparse { tolerance; max_sweeps; _ } -> sweep_block ~tolerance ~max_sweeps bsize);
      for r = 0 to bsize - 1 do
        x.(member (first + r)) <- xb.(r)
      done
    end
  in
  for k = 0 to Digraph.block_count blocks - 1 do
    if k land 1023 = 0 then Cancel.poll ();
    if solved k && not !failed then solve_block k
  done;
  let stats = { sweeps = !total_sweeps; residual = !worst; blocks = !nblocks } in
  if !failed then Max_sweeps { stats with residual = infinity } else Converged stats

(* [solve_transient] for the entry points: an exact solve reports no
   outcome, and fails as the elimination does on a singular system. *)
let solve method_ chain ~legitimate ~reaching_only ~base x =
  match (method_, solve_transient method_ chain ~legitimate ~reaching_only ~base x) with
  | Exact, Converged _ -> None
  | Exact, Max_sweeps _ ->
    failwith "Markov: singular system (a transient state cannot leave itself)"
  | Sparse _, outcome -> Some outcome

let sparse_hitting_times ?(kind = Gauss_seidel) ?(tolerance = 1e-10)
    ?(max_sweeps = 1_000_000) chain ~legitimate =
  let x = Array.make chain.g.n 0.0 in
  let outcome =
    solve_transient (Sparse { kind; tolerance; max_sweeps }) chain ~legitimate
      ~reaching_only:false ~base:1.0 x
  in
  (x, outcome)

let no_convergence fn ~tolerance (stats : solve_stats) =
  failwith
    (Printf.sprintf
       "Markov.%s: no convergence after %d sweeps across %d blocks (relative \
        residual %g, tolerance %g)"
       fn stats.sweeps stats.blocks stats.residual tolerance)

let dense_limit = 1200

let default_method ~transient =
  if transient <= dense_limit then Exact
  else Sparse { kind = Gauss_seidel; tolerance = 1e-10; max_sweeps = 1_000_000 }

(* The probability-1 check, then the solve over the blocks that check
   decomposed C \ L into; a state that cannot reach [legitimate] is
   the error. *)
let hitting_times_result ?method_ chain ~legitimate =
  Result.map
    (fun () ->
      let count = Array.fold_left (fun k l -> if l then k else k + 1) 0 legitimate in
      let x = Array.make chain.g.n 0.0 in
      if count = 0 then (x, None)
      else
        let method_ = Option.value method_ ~default:(default_method ~transient:count) in
        (x, solve method_ chain ~legitimate ~reaching_only:false ~base:1.0 x))
    (converges_with_prob_one chain ~legitimate)

let hitting_times_checked ?method_ chain ~legitimate =
  match hitting_times_result ?method_ chain ~legitimate with
  | Ok solved -> solved
  | Error c ->
    invalid_arg
      (Printf.sprintf
         "Markov.expected_hitting_times: state %d cannot reach the legitimate set" c)

let method_tolerance = function
  | Some (Sparse { tolerance; _ }) -> tolerance
  | Some Exact | None -> 1e-10

let expected_hitting_times ?method_ chain ~legitimate =
  match hitting_times_checked ?method_ chain ~legitimate with
  | times, (None | Some (Converged _)) -> times
  | _, Some (Max_sweeps stats) ->
    no_convergence "sparse_hitting_times" ~tolerance:(method_tolerance method_) stats

(* The absorption system: the states outside L that can reach it, the
   blocks of C \ L flagged as reaching L, are transient; L is pinned
   at 1 and the doomed rest at 0. *)
let absorption_probabilities ?method_ chain ~legitimate =
  Stabobs.Obs.span "markov.absorption" @@ fun () ->
  let method_ =
    Option.value method_
      ~default:(Sparse { kind = Gauss_seidel; tolerance = 1e-12; max_sweeps = 1_000_000 })
  in
  let x = Array.map (fun l -> if l then 1.0 else 0.0) legitimate in
  match solve method_ chain ~legitimate ~reaching_only:true ~base:0.0 x with
  | None | Some (Converged _) -> x
  | Some (Max_sweeps stats) ->
    no_convergence "sparse_absorption" ~tolerance:(method_tolerance (Some method_)) stats

let transient_distribution chain ~init ~steps =
  let n = states chain in
  if Array.length init <> n then
    invalid_arg "Markov.transient_distribution: distribution length mismatch";
  let total = Array.fold_left ( +. ) 0.0 init in
  if
    Array.exists (fun w -> w < 0.0 || not (Float.is_finite w)) init
    || Float.abs (total -. 1.0) > 1e-9
  then
    invalid_arg "Markov.transient_distribution: not a distribution";
  let read = rows_reader chain in
  let current = ref (Array.copy init) in
  for _ = 1 to steps do
    let next = Array.make n 0.0 in
    Array.iteri
      (fun c mass ->
        if mass > 0.0 then
          read c (fun c' w -> next.(c') <- next.(c') +. (mass *. w)))
      !current;
    current := next
  done;
  !current

let mass_in dist set =
  let acc = ref 0.0 in
  Array.iteri (fun c mass -> if set.(c) then acc := !acc +. mass) dist;
  !acc

type hitting_stats = { times : float array; mean : float; max : float }

(* [weights] are per-state multiplicities (orbit sizes of a lumped
   chain): the weighted mean over representatives equals the plain
   mean over the full space, because hitting times are constant on
   orbits. The max needs no weighting. *)
let stats_of_times ?weights times =
  let n = Array.length times in
  let mean =
    match weights with
    | None -> Array.fold_left ( +. ) 0.0 times /. float_of_int n
    | Some w ->
      if Array.length w <> n then
        invalid_arg "Markov.hitting_stats: weights length mismatch";
      let num = ref 0.0 and den = ref 0.0 in
      Array.iteri
        (fun c t ->
          let wc = float_of_int w.(c) in
          num := !num +. (wc *. t);
          den := !den +. wc)
        times;
      !num /. !den
  in
  { times; mean; max = Array.fold_left Float.max 0.0 times }

(* One solve for all summary statistics. *)
let hitting_stats ?method_ ?weights chain ~legitimate =
  stats_of_times ?weights (expected_hitting_times ?method_ chain ~legitimate)

let hitting_stats_result ?method_ ?weights chain ~legitimate =
  Result.map
    (fun (times, outcome) -> (stats_of_times ?weights times, outcome))
    (hitting_times_result ?method_ chain ~legitimate)

let hitting_stats_checked ?method_ ?weights chain ~legitimate =
  let times, outcome = hitting_times_checked ?method_ chain ~legitimate in
  (stats_of_times ?weights times, outcome)
