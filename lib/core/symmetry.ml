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
   further sweeps. This keeps the setup cost at O(#generators * |C|)
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

let sort_dist entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, w) ->
      Hashtbl.replace tbl c (w +. Option.value ~default:0.0 (Hashtbl.find_opt tbl c)))
    entries;
  Hashtbl.fold (fun c w acc -> (c, w) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

exception Not_symmetric

(* Per-configuration singleton data for the commutation sweep, shared
   by every candidate: the enabled processes (ascending) and, per
   enabled process, its singleton-activation outcome distribution as
   code-sorted packed codes. Candidate checks then cost pure integer
   work, and rows are filled on demand, so rejecting a large candidate
   set (stars have factorial many automorphisms) pays only for the few
   configurations each rejection touches — not a full protocol pass per
   candidate. *)
type sweep = {
  s_count : int;
  s_have : Bytes.t; (* row filled? *)
  s_en : int array array; (* s_en.(c) = enabled processes of code c *)
  s_codes : int array array array; (* s_codes.(c).(i) = outcome codes of s_en.(c).(i) *)
  s_weights : float array array array; (* matching probabilities *)
  s_fill : int -> unit;
}

let sweep_table (protocol : 'a Protocol.t) enc =
  let count = Encoding.count enc in
  let s_have = Bytes.make count '\000' in
  let s_en = Array.make count [||] in
  let s_codes = Array.make count [||] in
  let s_weights = Array.make count [||] in
  let s_fill code =
    if Bytes.unsafe_get s_have code = '\000' then begin
      Bytes.unsafe_set s_have code '\001';
      let cfg = Encoding.decode enc code in
      let en = Protocol.enabled_with_actions protocol cfg in
      let k = List.length en in
      let ens = Array.make k 0 in
      let cs = Array.make k [||] in
      let ws = Array.make k [||] in
      List.iteri
        (fun i (p, a) ->
          let w = Encoding.weight enc p in
          let cur = Encoding.digit enc p code in
          ens.(i) <- p;
          match a.Protocol.result cfg p with
          | [ (s, pw) ] ->
            (* Deterministic fast path: no merge, no sort. *)
            cs.(i) <- [| code + ((Encoding.index_in_domain enc p s - cur) * w) |];
            ws.(i) <- [| pw |]
          | outs ->
            let dist =
              outs
              |> List.map (fun (s, pw) ->
                     (code + ((Encoding.index_in_domain enc p s - cur) * w), pw))
              |> sort_dist
            in
            cs.(i) <- Array.of_list (List.map fst dist);
            ws.(i) <- Array.of_list (List.map snd dist))
        en;
      s_en.(code) <- ens;
      s_codes.(code) <- cs;
      s_weights.(code) <- ws
    end
  in
  { s_count = count; s_have; s_en; s_codes; s_weights; s_fill }

(* Exact commutation sweep. Per configuration we compare enabled sets
   and, for every enabled process, the singleton-activation outcome
   distributions across the permutation; composite daemon steps are
   products of these local distributions read from the same
   configuration, so singleton commutation implies commutation for
   every scheduler class. A validated candidate acts bijectively on
   codes (its tau rows are bijections), so mapped distributions never
   merge entries and sorting alone realigns them. *)
let validates sweep enc e =
  try
    for code = 0 to sweep.s_count - 1 do
      let code' = apply_element enc e code in
      sweep.s_fill code;
      sweep.s_fill code';
      let en = sweep.s_en.(code) and en' = sweep.s_en.(code') in
      let k = Array.length en in
      if Array.length en' <> k then raise Not_symmetric;
      for i = 0 to k - 1 do
        let q' = e.perm.(en.(i)) in
        let j = ref (-1) in
        for x = 0 to k - 1 do
          if en'.(x) = q' then j := x
        done;
        if !j < 0 then raise Not_symmetric;
        let codes = sweep.s_codes.(code).(i) in
        let codes' = sweep.s_codes.(code').(!j) in
        let ws = sweep.s_weights.(code).(i) in
        let ws' = sweep.s_weights.(code').(!j) in
        let m = Array.length codes in
        if Array.length codes' <> m then raise Not_symmetric;
        if m = 1 then begin
          if apply_element enc e codes.(0) <> codes'.(0) then raise Not_symmetric;
          if Float.abs (ws.(0) -. ws'.(0)) > 1e-9 then raise Not_symmetric
        end
        else begin
          let image = Array.init m (fun x -> (apply_element enc e codes.(x), ws.(x))) in
          Array.sort (fun (a, _) (b, _) -> Int.compare a b) image;
          for x = 0 to m - 1 do
            let c2, w2 = image.(x) in
            if c2 <> codes'.(x) || Float.abs (w2 -. ws'.(x)) > 1e-9 then
              raise Not_symmetric
          done
        end
      done
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
  (* The protocol-evaluation pass is shared by every candidate and
     skipped entirely when the graph is rigid. *)
  let sweep = lazy (sweep_table protocol enc) in
  List.iter
    (fun perm ->
      if not (Hashtbl.mem !generated perm) then
        match build_tau ~relabel enc perm with
        | None -> ()
        | Some e ->
          if validates (Lazy.force sweep) enc e then begin
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

(* Orbit-representative (minimum code) of [c], memoized per orbit: a
   miss applies every group element once and fills the whole orbit, so
   each orbit is computed exactly once. The table is only ever written
   from the single-threaded quotient sweep; afterwards all lookups are
   read-only hits, which keeps Domain-parallel expansion safe. *)
let canon t c =
  let tbl = table t in
  let cached = tbl.(c) in
  if cached >= 0 then begin
    Stabobs.Obs.Counter.incr Stabobs.Obs.symmetry_canon_hits;
    cached
  end
  else begin
    Stabobs.Obs.Counter.incr Stabobs.Obs.symmetry_canon_misses;
    Stabobs.Obs.Counter.incr Stabobs.Obs.symmetry_orbits;
    let enc = t.encoding in
    let m = ref c in
    Array.iter
      (fun e ->
        let image = apply_element enc e c in
        if image < !m then m := image)
      t.elements;
    let m = !m in
    Array.iter (fun e -> tbl.(apply_element enc e c) <- m) t.elements;
    m
  end

(* Pool-parallel canonicalization sweep. The orbit minimum of a code
   does not depend on visit order, so when two domains race on members
   of the same orbit both compute the same minimum and store the same
   values — the duplicated orbit walk is the only cost, and the filled
   table is identical to the serial ascending sweep's. Counters are
   emitted once from an exact post-pass (a representative is its own
   canon), so the recorded hit/miss/orbit totals match the serial sweep
   at every pool width instead of varying with race outcomes. Meant to
   be called once on a freshly built group (see Statespace.quotient);
   the post-pass would re-count orbits already charged by earlier
   [canon] misses. *)
let canon_grain = Pool.Grain.site "symmetry.canon"

let fill_table t =
  let n = Encoding.count t.encoding in
  let tbl = table t in
  let enc = t.encoding in
  Pool.parallel_for ~site:canon_grain ~min_chunk:256 n (fun ~lo ~hi ->
      for c = lo to hi - 1 do
        if c land 1023 = 0 then Cancel.poll ();
        if tbl.(c) < 0 then begin
          let m = ref c in
          Array.iter
            (fun e ->
              let image = apply_element enc e c in
              if image < !m then m := image)
            t.elements;
          let m = !m in
          Array.iter (fun e -> tbl.(apply_element enc e c) <- m) t.elements
        end
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

let orbit t c =
  let enc = t.encoding in
  let tbl = Hashtbl.create 8 in
  Array.iter (fun e -> Hashtbl.replace tbl (apply_element enc e c) ()) t.elements;
  Hashtbl.fold (fun code () acc -> code :: acc) tbl [] |> List.sort Int.compare

let orbit_size t c = List.length (orbit t c)
