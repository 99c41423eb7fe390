(* Symmetry reduction for anonymous protocols.

   The protocols of the paper run on anonymous networks, so any
   automorphism sigma of the communication graph acts on configurations
   by gamma'(sigma p) = relabel(gamma(p)) and commutes with the
   transition relation. This module computes a *validated* subgroup of
   that action on packed configuration codes: candidate permutations
   come from [Graph.automorphisms], each generator is checked by exact
   commutation over the full configuration space (enabled sets and
   per-process outcome distributions must map across the permutation),
   and the validated generators are closed into a group. Orientation
   asymmetries are caught by the sweep — e.g. the oriented token ring
   admits only the cyclic subgroup of the dihedral candidates.

   Validation happens per *generator*, not per element: products of
   valid elements are valid, so closing the swept generators costs no
   further sweeps. This keeps the setup cost at O(#generators * |C| * n)
   slot comparisons plus one protocol evaluation per configuration,
   even when the group is large (stars have factorial groups). *)

type element = {
  perm : int array; (* node permutation sigma *)
  tau : int array array; (* tau.(p).(d) = digit of sigma(p) for digit d of p *)
  contrib : int array array; (* tau.(p).(d) * weight(sigma(p)) — apply fast path *)
}

type 'a t = {
  protocol : 'a Protocol.t;
  encoding : 'a Encoding.t;
  elements : element array; (* a group; elements.(0) is the identity *)
  mutable canon : int array option; (* orbit representative per code, -1 = unknown *)
}

let paranoid = ref (Option.is_some (Sys.getenv_opt "STAB_SYMMETRY_PARANOID"))
let set_paranoid b = paranoid := b
let paranoid_enabled () = !paranoid

let group_order t = Array.length t.elements
let is_trivial t = group_order t <= 1

let make_contrib enc tau perm =
  Array.mapi
    (fun p row -> Array.map (fun d -> d * Encoding.weight enc perm.(p)) row)
    tau

let identity_element enc n =
  let perm = Array.init n Fun.id in
  let tau = Array.init n (fun p -> Array.init (Encoding.domain_size enc p) Fun.id) in
  { perm; tau; contrib = make_contrib enc tau perm }

(* The code action of a validated element never needs the state values
   again: it is a digit shuffle with precomputed positional weights. *)
let apply_element enc e code =
  let n = Encoding.processes enc in
  let acc = ref 0 in
  for p = 0 to n - 1 do
    acc := !acc + e.contrib.(p).(Encoding.digit enc p code)
  done;
  !acc

let apply t i code = apply_element t.encoding t.elements.(i) code

(* tau for a candidate permutation: digit d at p relabels to the state
   [relabel ~perm p (value p d)], which must exist in sigma(p)'s domain;
   the per-process map must be bijective. [None] if either fails. *)
let build_tau ~relabel enc perm =
  let n = Encoding.processes enc in
  let ok = ref true in
  let tau =
    Array.init n (fun p ->
        let q = perm.(p) in
        let size = Encoding.domain_size enc p in
        if Encoding.domain_size enc q <> size then begin
          ok := false;
          [||]
        end
        else begin
          let row = Array.make size (-1) in
          let seen = Array.make size false in
          for d = 0 to size - 1 do
            match Encoding.index_opt enc q (relabel ~perm p (Encoding.value enc p d)) with
            | Some j when not seen.(j) ->
              seen.(j) <- true;
              row.(d) <- j
            | _ -> ok := false
          done;
          row
        end)
  in
  if !ok then Some { perm; tau; contrib = make_contrib enc tau perm } else None

let compose_perm a b = Array.init (Array.length a) (fun p -> a.(b.(p)))

(* Element composition stays inside the code action, so the closure of
   validated generators never re-invokes the relabel hook. *)
let compose_element enc a b =
  let n = Array.length a.perm in
  let perm = compose_perm a.perm b.perm in
  let tau =
    Array.init n (fun p -> Array.map (fun d -> a.tau.(b.perm.(p)).(d)) b.tau.(p))
  in
  { perm; tau; contrib = make_contrib enc tau perm }

let close_elements enc identity generators =
  let tbl = Hashtbl.create 64 in
  let queue = Queue.create () in
  let out = ref [] in
  let add e =
    if not (Hashtbl.mem tbl e.perm) then begin
      Hashtbl.add tbl e.perm ();
      Queue.add e queue;
      out := e :: !out
    end
  in
  add identity;
  while not (Queue.is_empty queue) do
    let e = Queue.pop queue in
    List.iter (fun g -> add (compose_element enc g e)) generators
  done;
  (* Identity first, the rest in discovery order. *)
  Array.of_list (List.rev !out)

exception Not_symmetric

(* The commutation table, shared by every candidate: one slot per
   (configuration, process), at [c * n + p], holding
   - [-1] when [p] is disabled at [c];
   - the next digit of [p], when its singleton activation has one
     outcome of weight exactly 1.0;
   - otherwise [dmax + id], [dmax] the largest domain size and
     [dists.(id)] the interned outcome distribution of [p]: its local
     digits, merged and ascending, with their weights.
   A configuration's slots are filled together on its first touch, so
   the protocol is evaluated at most once per configuration whatever
   the number of candidates, and rejecting a large candidate set (stars
   have factorial many automorphisms) pays only for the configurations
   before each first mismatch. Unfilled slots are never read, and the
   int32 array leaves their pages untouched. *)
type table = {
  n : int;
  dmax : int;
  slots : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  filled : Bytes.t;
  ids : ((int * float) list, int) Hashtbl.t;
  mutable dists : (int * float) list array; (* by id; grows by doubling *)
}

let intern t dist =
  match Hashtbl.find_opt t.ids dist with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.ids in
    Hashtbl.add t.ids dist id;
    if id = Array.length t.dists then t.dists <- Array.append t.dists (Array.make (id + 8) []);
    t.dists.(id) <- dist;
    id

let outcome_slot t enc p outs =
  match outs with
  | [ (s, w) ] when w = 1.0 -> Encoding.index_in_domain enc p s
  | _ ->
    let rec merge = function
      | (d, w) :: (d', w') :: rest when d = d' -> merge ((d, w +. w') :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    List.map (fun (s, w) -> (Encoding.index_in_domain enc p s, w)) outs
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> merge |> intern t |> ( + ) t.dmax

let commutation_table (protocol : 'a Protocol.t) enc =
  let n = Encoding.processes enc and count = Encoding.count enc in
  let t =
    {
      n;
      dmax = Array.fold_left max 1 (Array.init n (Encoding.domain_size enc));
      slots = Bigarray.(Array1.create int32 c_layout (count * n));
      filled = Bytes.make count '\000';
      ids = Hashtbl.create 16;
      dists = [||];
    }
  in
  let cfg = Encoding.decode enc 0 in
  let fill c =
    if Bytes.unsafe_get t.filled c = '\000' then begin
      Bytes.unsafe_set t.filled c '\001';
      Encoding.decode_into enc c cfg;
      for p = 0 to n - 1 do
        let slot =
          match Protocol.enabled_action protocol cfg p with
          | None -> -1
          | Some a -> outcome_slot t enc p (a.Protocol.result cfg p)
        in
        Bigarray.Array1.unsafe_set t.slots ((c * n) + p) (Int32.of_int slot)
      done
    end
  in
  (t, fill)

let slot t c p = Int32.to_int (Bigarray.Array1.unsafe_get t.slots ((c * t.n) + p))
let dist t s = if s < t.dmax then [ (s, 1.0) ] else t.dists.(s - t.dmax)

(* Slot [s] of a process [p] at [c] against slot [s'] of [sigma p] at
   [e c]: both disabled, or both enabled with [tau] (p's digit map)
   carrying the first distribution onto the second, weights within
   1e-9. A process changes only its own digit, so comparing local
   digits is comparing outcome codes; [tau] is a bijection, so mapped
   digits never merge and sorting alone realigns them. *)
let same_outcomes t tau s s' =
  if s < 0 || s' < 0 then s = s'
  else if s < t.dmax && s' < t.dmax then tau.(s) = s'
  else
    let image =
      List.map (fun (d, w) -> (tau.(d), w)) (dist t s)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let d' = dist t s' in
    List.compare_lengths image d' = 0
    && List.for_all2 (fun (a, w) (b, w') -> a = b && Float.abs (w -. w') <= 1e-9) image d'

(* Exact commutation sweep. Per configuration we compare, for every
   process, its singleton-activation slot with that of its image
   process at the image configuration; composite daemon steps are
   products of these local distributions read from the same
   configuration, so singleton commutation implies commutation for
   every scheduler class. Codes are walked in ascending order by a
   mixed-radix odometer that keeps the image code [e c] current by
   adding and subtracting [contrib] entries as digits bump, so no digit
   is divided out. *)
let validates (t, fill) enc e =
  let n = t.n in
  let digits = Array.make n 0 in
  let image = ref (apply_element enc e 0) in
  try
    for c = 0 to Encoding.count enc - 1 do
      let c' = !image in
      fill c;
      fill c';
      for p = 0 to n - 1 do
        if not (same_outcomes t e.tau.(p) (slot t c p) (slot t c' e.perm.(p))) then
          raise Not_symmetric
      done;
      let p = ref 0 in
      while !p < n && digits.(!p) = Encoding.domain_size enc !p - 1 do
        image := !image + e.contrib.(!p).(0) - e.contrib.(!p).(digits.(!p));
        digits.(!p) <- 0;
        incr p
      done;
      if !p < n then begin
        let row = e.contrib.(!p) and d = digits.(!p) in
        image := !image + row.(d + 1) - row.(d);
        digits.(!p) <- d + 1
      end
    done;
    true
  with Not_symmetric -> false

let default_relabel ~perm:_ _ s = s

let build ?(relabel = default_relabel) ?limit (protocol : 'a Protocol.t) enc =
  let n = Encoding.processes enc in
  let identity = identity_element enc n in
  let candidates = Stabgraph.Graph.automorphisms ?limit protocol.Protocol.graph in
  let generators = ref [] in
  let generated = ref (Hashtbl.create 16) in
  let regen () =
    let elements = close_elements enc identity !generators in
    let tbl = Hashtbl.create (Array.length elements) in
    Array.iter (fun e -> Hashtbl.replace tbl e.perm ()) elements;
    generated := tbl;
    elements
  in
  let elements = ref (regen ()) in
  (* The commutation table is shared by every candidate and never built
     when no candidate has a digit map. *)
  let table = lazy (commutation_table protocol enc) in
  List.iter
    (fun perm ->
      if not (Hashtbl.mem !generated perm) then
        match build_tau ~relabel enc perm with
        | None -> ()
        | Some e ->
          if validates (Lazy.force table) enc e then begin
            generators := e :: !generators;
            elements := regen ()
          end)
    candidates;
  { protocol; encoding = enc; elements = !elements; canon = None }

let table t =
  match t.canon with
  | Some a -> a
  | None ->
    let a = Array.make (Encoding.count t.encoding) (-1) in
    t.canon <- Some a;
    a

(* Writes the orbit minimum of [c] into the entry of every orbit member. *)
let fill_orbit t tbl c =
  let m = Array.fold_left (fun m e -> Int.min m (apply_element t.encoding e c)) c t.elements in
  Array.iter (fun e -> tbl.(apply_element t.encoding e c) <- m) t.elements

(* Pool-parallel canonicalization sweep. The orbit minimum of a code
   does not depend on visit order, so when two domains race on members
   of the same orbit both compute the same minimum and store the same
   values — the duplicated orbit walk is the only cost, and the filled
   table is identical to the serial ascending sweep's. Counters are
   emitted once from an exact post-pass (a representative is its own
   canon), so the recorded hit/miss/orbit totals match a serial
   ascending sweep at every pool width instead of varying with race
   outcomes. Meant to be called once on a freshly built group (see
   Statespace.quotient); a second call would count the orbits again. *)
let fill_table t =
  let n = Encoding.count t.encoding in
  let tbl = table t in
  Pool.parallel_for ~min_chunk:256 n (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        if c land 1023 = 0 then Cancel.poll ();
        if tbl.(c) < 0 then fill_orbit t tbl c
      done);
  let orbits = ref 0 in
  for c = 0 to n - 1 do
    if tbl.(c) = c then incr orbits
  done;
  Stabobs.Obs.Counter.add Stabobs.Obs.symmetry_orbits !orbits;
  Stabobs.Obs.Counter.add Stabobs.Obs.symmetry_canon_misses !orbits;
  Stabobs.Obs.Counter.add Stabobs.Obs.symmetry_canon_hits (n - !orbits)

(* Counter-free table read for consumers that just ran {!fill_table}:
   the quotient sweep reads every code once more to assign
   representative indexes, and charging those reads as cache hits
   would make the counters depend on which sweep ran. *)
let canon_value t c =
  let v = (table t).(c) in
  assert (v >= 0);
  v
