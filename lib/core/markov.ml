type randomization = Central_uniform | Distributed_uniform | Sync

(* The chain lives in compressed-sparse-row form, packed straight off
   the checker's flat successor arrays: row [c] occupies
   [off.(c) .. off.(c + 1) - 1] of [cols]/[w], targets merged and
   sorted ascending, weights summing to 1. [cols] is an int32
   {!Digraph.edges} array read through {!Digraph.target}, so
   {!graph} hands it to the kernel without a copy. Terminal
   configurations are stored as probability-1 self-loops, so every row
   is non-empty and the solvers never special-case absorption. *)
type t = { n : int; off : int array; cols : Digraph.edges; w : float array }

let states chain = chain.n

let row chain c =
  let out = ref [] in
  for i = chain.off.(c + 1) - 1 downto chain.off.(c) do
    out := (Digraph.target chain.cols i, chain.w.(i)) :: !out
  done;
  !out

let iter_row chain c f =
  for i = chain.off.(c) to chain.off.(c + 1) - 1 do
    f (Digraph.target chain.cols i) chain.w.(i)
  done

let merge_row entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, w) ->
      let prev = Option.value (Hashtbl.find_opt tbl c) ~default:0.0 in
      Hashtbl.replace tbl c (prev +. w))
    entries;
  Hashtbl.fold (fun c w acc -> (c, w) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Stable merge sort of [t.(lo .. hi - 1)] by target, carrying the
   weights [w] along; [st]/[sw] hold the left run while it is merged
   back in place. Rows off the packed graph arrive nearly descending,
   which would make an insertion sort quadratic. *)
let rec sort_row (t : int array) (w : float array) st sw lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_row t w st sw lo mid;
    sort_row t w st sw mid hi;
    let n = mid - lo in
    for i = 0 to n - 1 do
      st.(i) <- t.(lo + i);
      sw.(i) <- w.(lo + i)
    done;
    let a = ref 0 and b = ref mid and k = ref lo in
    while !a < n do
      if !b >= hi || st.(!a) <= t.(!b) then begin
        t.(!k) <- st.(!a);
        w.(!k) <- sw.(!a);
        incr a
      end
      else begin
        t.(!k) <- t.(!b);
        w.(!k) <- w.(!b);
        incr b
      end;
      incr k
    done
  end

(* One range [lo, hi) of the CSR packing. [each_row c add] must call
   [add target weight] once per transition of [c]. The pairs land at the
   tail of the range buffers; once the row is complete they are
   stable-sorted by target and each run of equal targets is summed left
   to right in place. That is arrival order, so every merged weight is
   the same float sum however the rows are split. Empty rows become
   absorbing self-loops. [off.(c + 1)] is written relative to the range;
   the merge rebases it. *)
type part = { lo : int; hi : int; pcols : int Growbuf.t; pw : float Growbuf.t }

let pack_range ~each_row off ~lo ~hi =
  let cols = Growbuf.create (2 * (hi - lo)) 0 in
  let ws = Growbuf.create (2 * (hi - lo)) 0.0 in
  let add c' wgt =
    Growbuf.push_int cols c';
    Growbuf.push_float ws wgt
  in
  let st = ref [||] and sw = ref [||] in
  for c = lo to hi - 1 do
    if c land 1023 = 0 then Cancel.poll ();
    let start = cols.len in
    each_row c add;
    let len = cols.len in
    if len = start then add c 1.0 (* terminal: absorbing *)
    else begin
      if Array.length !st < len - start then begin
        st := Array.make (len - start) 0;
        sw := Array.make (len - start) 0.0
      end;
      let t = cols.data and w = ws.data in
      sort_row t w !st !sw start len;
      let out = ref start and i = ref start in
      while !i < len do
        let target = t.(!i) in
        let sum = ref w.(!i) in
        incr i;
        while !i < len && t.(!i) = target do
          sum := !sum +. w.(!i);
          incr i
        done;
        t.(!out) <- target;
        w.(!out) <- !sum;
        incr out
      done;
      cols.len <- !out;
      ws.len <- !out
    end;
    off.(c + 1) <- cols.len
  done;
  { lo; hi; pcols = cols; pw = ws }

let pack_grain = Pool.Grain.site "markov.pack"

(* Rows are independent, so ranges pack concurrently on the pool (a
   single range at width 1); the serial merge rebases the offsets and
   concatenates the ranges in row order, copying each range buffer
   once: the targets into one exact-size edge array, the weights into
   one float array. *)
let pack n ~each_row =
  let off = Array.make (n + 1) 0 in
  let parts = Pool.map_ranges ~site:pack_grain ~min_chunk:64 n (pack_range ~each_row off) in
  let base = ref 0 in
  List.iter
    (fun p ->
      for c = p.lo + 1 to p.hi do
        off.(c) <- off.(c) + !base
      done;
      base := !base + p.pcols.len)
    parts;
  let w = Growbuf.concat 0.0 (fun p -> p.pw) parts in
  { n; off; cols = Digraph.edges_of_buffers ~nodes:n (List.map (fun p -> p.pcols) parts); w }

(* Strong-lumpability audit of a quotient chain, enabled by paranoid
   mode: every orbit member of the *full* space must project (through
   rep_of) onto exactly the lumped row its representative got. This is
   the condition making quotient hitting times and absorption
   probabilities equal to the full chain's. Expensive — it expands the
   base space — and therefore gated. *)
let check_lumpability chain space base reps rep_of cls =
  let g = Checker.expand base cls in
  let project entries =
    match entries with
    | [] -> None
    | _ -> Some (merge_row (List.map (fun (c, w) -> (rep_of.(c), w)) entries))
  in
  let fail c =
    invalid_arg
      (Printf.sprintf
         "Markov.of_space: lumpability violated at full-space code %d (quotient uid \
          %d)"
         c (Statespace.uid space))
  in
  for c = 0 to Statespace.count base - 1 do
    let expected = row chain rep_of.(c) in
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
  done;
  ignore reps

(* The chain is read off the checker's packed expansion, so a space
   analysed exhaustively and then probabilistically expands its
   transition relation once, not twice. On a quotient space the packed
   graph already has canonicalized targets, so the very same read-off
   produces the lumped chain; orbit sizes only matter to consumers that
   average over the full space (see {!hitting_stats}). *)
let of_space space randomization =
  Stabobs.Obs.span "markov.of_space" @@ fun () ->
  let cls =
    match randomization with
    | Central_uniform -> Statespace.Central
    | Distributed_uniform -> Statespace.Distributed
    | Sync -> Statespace.Synchronous
  in
  let g = Checker.expand space cls in
  let n = Statespace.count space in
  let chain = pack n ~each_row:(fun c add -> Checker.iter_weighted_row g c add) in
  (if Symmetry.paranoid_enabled () then
     match Statespace.quotient_view space with
     | None -> ()
     | Some (base, reps, rep_of, _) ->
       check_lumpability chain space base reps rep_of cls);
  chain

let of_rows rows =
  let n = Array.length rows in
  Array.iter
    (fun entries ->
      match entries with
      | [] -> ()
      | _ ->
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 entries in
        List.iter
          (fun (c, w) ->
            if c < 0 || c >= n then invalid_arg "Markov.of_rows: target out of range";
            if not (w > 0.0 && Float.is_finite w) then
              invalid_arg "Markov.of_rows: weight not finite and positive")
          entries;
        if Float.abs (total -. 1.0) > 1e-9 then
          invalid_arg "Markov.of_rows: row does not sum to 1")
    rows;
  pack n ~each_row:(fun c add -> List.iter (fun (c', w) -> add c' w) rows.(c))

let graph chain = { Digraph.n = chain.n; off = chain.off; rows = Edges chain.cols }

let bsccs chain =
  let comps = Digraph.sccs (graph chain) in
  let component = Array.make chain.n (-1) in
  List.iteri (fun i members -> Array.iter (fun c -> component.(c) <- i) members) comps;
  List.filteri
    (fun i members ->
      Array.for_all
        (fun c ->
          let inside = ref true in
          iter_row chain c (fun c' _ -> if component.(c') <> i then inside := false);
          !inside)
        members)
    comps
  |> List.map Array.to_list

let transient_blocks chain ~transient =
  Digraph.sccs ~keep:(fun c -> transient.(c)) (graph chain)

let reaches chain ~target = Digraph.reaches (graph chain) ~target

let converges_with_prob_one chain ~legitimate =
  match Array.find_index not (reaches chain ~target:legitimate) with
  | None -> Ok ()
  | Some c -> Error c

type sparse_kind = Gauss_seidel | Jacobi

type hitting_method =
  | Exact
  | Sparse of { kind : sparse_kind; tolerance : float; max_sweeps : int }

type solve_stats = { sweeps : int; residual : float; blocks : int }
type solve_outcome = Converged of solve_stats | Max_sweeps of solve_stats

(* Blocked substochastic solve of x = base + P x over the [transient]
   states, in place in [x]; entries outside [transient] are boundary
   values and never written. The transient subgraph is decomposed into
   SCCs and solved block by block in reverse topological order, so
   every out-of-block target read during a block's sweeps is already
   final — acyclic transient parts (self-stabilizing protocols) reduce
   to exact back-substitution, and iteration cost concentrates on the
   recurrent-looking blocks that need it. Each equation is
   diagonal-solved: x(c) = (base + sum_{c' <> c} w x(c')) / (1 - w_cc),
   which makes singleton blocks exact in one evaluation. Stops on the
   relative residual ||x_{k+1} - x_k||_inf / max(1, ||x||_inf) <= tol;
   a block exceeding [max_sweeps] aborts the remaining blocks and
   reports [Max_sweeps] with the partial iterate left in [x]. *)
let solve_transient ~kind ~tolerance ~max_sweeps chain ~transient ~base x =
  let blocks = transient_blocks chain ~transient in
  let nblocks = List.length blocks in
  let x_old = match kind with Jacobi -> Array.make chain.n 0.0 | Gauss_seidel -> [||] in
  let block_of = Array.make chain.n (-1) in
  Stabobs.Obs.span "markov.solve.sparse"
    ~args:[ ("blocks", Stabobs.Json.Int nblocks) ]
  @@ fun () ->
  let total_sweeps = ref 0 in
  let worst = ref 0.0 in
  let failed = ref false in
  let value c read_in read_self =
    (* One diagonal-solved evaluation of state [c]'s equation;
       [read_in] resolves targets inside the current block. *)
    let acc = ref base in
    let self = ref 0.0 in
    for i = chain.off.(c) to chain.off.(c + 1) - 1 do
      let c' = Digraph.target chain.cols i in
      let wv = chain.w.(i) in
      if c' = c then self := !self +. wv
      else if block_of.(c') = block_of.(c) then acc := !acc +. (wv *. read_in c')
      else acc := !acc +. (wv *. x.(c'))
    done;
    let d = 1.0 -. !self in
    if d > 1e-12 then !acc /. d
    else
      (* No leak through the diagonal: the plain fixed-point update.
         A transient state with w_cc = 1 violates the solvability
         precondition; this keeps the sweep finite so the block times
         out instead of dividing by zero. *)
      !acc +. (!self *. read_self c)
  in
  let solve_block bid block =
    let bsize = Array.length block in
    Array.iter (fun c -> block_of.(c) <- bid) block;
    if bsize = 1 then begin
      let c = block.(0) in
      let d =
        let self = ref 0.0 in
        iter_row chain c (fun c' wv -> if c' = c then self := !self +. wv);
        1.0 -. !self
      in
      if d > 1e-12 then x.(c) <- value c (fun c' -> x.(c')) (fun c' -> x.(c'))
      else failed := true (* absorbing-in-transient: no finite solution *)
    end
    else
      Stabobs.Obs.span "markov.solve.block"
        ~args:[ ("size", Stabobs.Json.Int bsize) ]
      @@ fun () ->
      let sweeps = ref 0 in
      let residual = ref infinity in
      let continue = ref true in
      while !continue do
        Cancel.poll ();
        if !sweeps >= max_sweeps then begin
          failed := true;
          continue := false
        end
        else begin
          incr sweeps;
          let delta = ref 0.0 in
          (* max(1, ||x||_inf) folded into the starting norm. *)
          let norm = ref 1.0 in
          (match kind with
          | Gauss_seidel ->
            Array.iter
              (fun c ->
                let v = value c (fun c' -> x.(c')) (fun c' -> x.(c')) in
                delta := Float.max !delta (Float.abs (v -. x.(c)));
                norm := Float.max !norm (Float.abs v);
                x.(c) <- v)
              block
          | Jacobi ->
            Array.iter (fun c -> x_old.(c) <- x.(c)) block;
            Array.iter
              (fun c ->
                let v = value c (fun c' -> x_old.(c')) (fun c' -> x_old.(c')) in
                delta := Float.max !delta (Float.abs (v -. x.(c)));
                norm := Float.max !norm (Float.abs v);
                x.(c) <- v)
              block);
          let rel = !delta /. !norm in
          residual := rel;
          Stabobs.Dist.record Stabobs.Dist.markov_solve_residual rel;
          if rel <= tolerance then continue := false
        end
      done;
      Stabobs.Obs.Counter.add Stabobs.Obs.markov_solve_sweeps !sweeps;
      total_sweeps := !total_sweeps + !sweeps;
      worst := Float.max !worst !residual
  in
  List.iteri
    (fun bid block ->
      if bid land 1023 = 0 then Cancel.poll ();
      if not !failed then solve_block bid block)
    blocks;
  let stats = { sweeps = !total_sweeps; residual = !worst; blocks = nblocks } in
  if !failed then Max_sweeps { stats with residual = infinity } else Converged stats

let sparse_hitting_times ?(kind = Gauss_seidel) ?(tolerance = 1e-10)
    ?(max_sweeps = 1_000_000) chain ~legitimate =
  let n = chain.n in
  let transient = Array.map not legitimate in
  let x = Array.make n 0.0 in
  let outcome = solve_transient ~kind ~tolerance ~max_sweeps chain ~transient ~base:1.0 x in
  (x, outcome)

let sparse_absorption ?(kind = Gauss_seidel) ?(tolerance = 1e-12)
    ?(max_sweeps = 1_000_000) chain ~legitimate =
  let n = chain.n in
  let can_reach = reaches chain ~target:legitimate in
  let transient = Array.init n (fun c -> can_reach.(c) && not legitimate.(c)) in
  let x = Array.init n (fun c -> if legitimate.(c) then 1.0 else 0.0) in
  let outcome = solve_transient ~kind ~tolerance ~max_sweeps chain ~transient ~base:0.0 x in
  (x, outcome)

let no_convergence fn ~tolerance (stats : solve_stats) =
  failwith
    (Printf.sprintf
       "Markov.%s: no convergence after %d sweeps across %d blocks (relative \
        residual %g, tolerance %g)"
       fn stats.sweeps stats.blocks stats.residual tolerance)

let exact_hitting chain ~legitimate ~transient =
  Stabobs.Obs.span "markov.solve.exact" @@ fun () ->
  let t_count = Array.length transient in
  let pos = Array.make (states chain) (-1) in
  Array.iteri (fun i c -> pos.(c) <- i) transient;
  let a = Stablinalg.Matrix.identity t_count in
  Array.iteri
    (fun i c ->
      iter_row chain c (fun c' w ->
          if not legitimate.(c') then begin
            let j = pos.(c') in
            Stablinalg.Matrix.set a i j (Stablinalg.Matrix.get a i j -. w)
          end))
    transient;
  Stablinalg.Matrix.solve a (Array.make t_count 1.0)

let dense_limit = 1200

let default_method ~transient =
  if transient <= dense_limit then Exact
  else Sparse { kind = Gauss_seidel; tolerance = 1e-10; max_sweeps = 1_000_000 }

let hitting_times_checked ?method_ chain ~legitimate =
  (match converges_with_prob_one chain ~legitimate with
  | Ok () -> ()
  | Error c ->
    invalid_arg
      (Printf.sprintf
         "Markov.expected_hitting_times: state %d cannot reach the legitimate set" c));
  let n = states chain in
  let transient =
    Array.of_list (List.filter (fun c -> not legitimate.(c)) (List.init n Fun.id))
  in
  if Array.length transient = 0 then (Array.make n 0.0, None)
  else begin
    let method_ =
      match method_ with
      | Some m -> m
      | None -> default_method ~transient:(Array.length transient)
    in
    match method_ with
    | Exact ->
      let solved = exact_hitting chain ~legitimate ~transient in
      let out = Array.make n 0.0 in
      Array.iteri (fun i c -> out.(c) <- solved.(i)) transient;
      (out, None)
    | Sparse { kind = Gauss_seidel; tolerance; max_sweeps } ->
      let times, outcome = sparse_hitting_times ~tolerance ~max_sweeps chain ~legitimate in
      (times, Some outcome)
    | Sparse { kind = Jacobi; tolerance; max_sweeps } ->
      let times, outcome =
        sparse_hitting_times ~kind:Jacobi ~tolerance ~max_sweeps chain ~legitimate
      in
      (times, Some outcome)
  end

let method_tolerance = function
  | Some (Sparse { tolerance; _ }) -> tolerance
  | Some Exact | None -> 1e-10

let expected_hitting_times ?method_ chain ~legitimate =
  match hitting_times_checked ?method_ chain ~legitimate with
  | times, (None | Some (Converged _)) -> times
  | _, Some (Max_sweeps stats) ->
    no_convergence "sparse_hitting_times" ~tolerance:(method_tolerance method_) stats

(* Dense oracle for absorption: solve (I - Q) p = (one-step mass into
   L) on the transient states that can reach L; everything else is
   pinned at 0 (doomed) or 1 (inside L). *)
let exact_absorption chain ~legitimate =
  let n = states chain in
  let can_reach = reaches chain ~target:legitimate in
  let transient =
    Array.of_list
      (List.filter (fun c -> can_reach.(c) && not legitimate.(c)) (List.init n Fun.id))
  in
  let p = Array.init n (fun c -> if legitimate.(c) then 1.0 else 0.0) in
  let t_count = Array.length transient in
  if t_count = 0 then p
  else begin
    Stabobs.Obs.span "markov.solve.exact" @@ fun () ->
    let pos = Array.make n (-1) in
    Array.iteri (fun i c -> pos.(c) <- i) transient;
    let a = Stablinalg.Matrix.identity t_count in
    let b = Array.make t_count 0.0 in
    Array.iteri
      (fun i c ->
        iter_row chain c (fun c' w ->
            if legitimate.(c') then b.(i) <- b.(i) +. w
            else if pos.(c') >= 0 then
              Stablinalg.Matrix.set a i (pos.(c'))
                (Stablinalg.Matrix.get a i (pos.(c')) -. w)))
      transient;
    let solved = Stablinalg.Matrix.solve a b in
    Array.iteri (fun i c -> p.(c) <- solved.(i)) transient;
    p
  end

let absorption_probabilities ?method_ chain ~legitimate =
  Stabobs.Obs.span "markov.absorption" @@ fun () ->
  let method_ =
    Option.value method_
      ~default:(Sparse { kind = Gauss_seidel; tolerance = 1e-12; max_sweeps = 1_000_000 })
  in
  match method_ with
  | Exact -> exact_absorption chain ~legitimate
  | Sparse { kind = Gauss_seidel; tolerance; max_sweeps } -> (
    let p, outcome = sparse_absorption ~tolerance ~max_sweeps chain ~legitimate in
    match outcome with
    | Converged _ -> p
    | Max_sweeps stats -> no_convergence "sparse_absorption" ~tolerance stats)
  | Sparse { kind = Jacobi; tolerance; max_sweeps } -> (
    let p, outcome =
      sparse_absorption ~kind:Jacobi ~tolerance ~max_sweeps chain ~legitimate
    in
    match outcome with
    | Converged _ -> p
    | Max_sweeps stats -> no_convergence "sparse_absorption" ~tolerance stats)

let transient_distribution chain ~init ~steps =
  let n = states chain in
  if Array.length init <> n then
    invalid_arg "Markov.transient_distribution: distribution length mismatch";
  let total = Array.fold_left ( +. ) 0.0 init in
  if Array.exists (fun w -> w < 0.0) init || Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg "Markov.transient_distribution: not a distribution";
  let current = ref (Array.copy init) in
  for _ = 1 to steps do
    let next = Array.make n 0.0 in
    Array.iteri
      (fun c mass ->
        if mass > 0.0 then
          iter_row chain c (fun c' w -> next.(c') <- next.(c') +. (mass *. w)))
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

let hitting_stats_checked ?method_ ?weights chain ~legitimate =
  let times, outcome = hitting_times_checked ?method_ chain ~legitimate in
  (stats_of_times ?weights times, outcome)

let mean_hitting_time chain ~legitimate = (hitting_stats chain ~legitimate).mean
let max_hitting_time chain ~legitimate = (hitting_stats chain ~legitimate).max
