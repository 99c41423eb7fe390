type sched_class = Central | Distributed | Synchronous

let pp_sched_class fmt = function
  | Central -> Format.pp_print_string fmt "central"
  | Distributed -> Format.pp_print_string fmt "distributed"
  | Synchronous -> Format.pp_print_string fmt "synchronous"

(* A space is either the full configuration space or a symmetry
   quotient of one: configs of a quotient are orbit representatives and
   transitions are the base transitions with canonicalized targets.
   Both share the representation, so every consumer of ['a t] — the
   checker, the Markov layer, the experiments — works on quotients
   unchanged, keyed by the quotient's own fresh [uid]. *)
type 'a view =
  | Full
  | Quotient of {
      base : 'a t;
      sym : 'a Symmetry.t;
      reps : int array; (* representative index -> full code *)
      rep_of : int array; (* full code -> representative index *)
      sizes : int array; (* representative index -> orbit size *)
    }

and 'a t = {
  protocol : 'a Protocol.t;
  encoding : 'a Encoding.t;
  uid : int;
  view : 'a view;
  mutable quots : ((perm:int array -> int -> 'a -> 'a) option * 'a t) list;
      (* Memoized quotients of a full space, keyed by the physical
         identity of the [relabel] hook: different hooks validate
         different groups, so a quotient cached under one hook must
         never be returned for another (omitting the hook of a
         labeling-dependent protocol yields the trivial group, and
         returning that stale result for a later call that does pass
         the hook — or vice versa — would be silently wrong). A
         freshly allocated but semantically equal closure misses and
         rebuilds: correct, merely unshared. *)
}

(* Every space gets a process-unique id so expansion caches (see
   Checker) can key on identity without retaining the space itself. *)
let next_uid = Atomic.make 0

let build ?(max_configs = 2_000_000) protocol =
  Stabobs.Obs.span "statespace.build" @@ fun () ->
  let encoding = Encoding.of_protocol protocol in
  if Encoding.count encoding > max_configs then
    invalid_arg
      (Printf.sprintf "Statespace.build: %d configurations exceed the %d limit"
         (Encoding.count encoding) max_configs);
  {
    protocol;
    encoding;
    uid = Atomic.fetch_and_add next_uid 1;
    view = Full;
    quots = [];
  }

let protocol t = t.protocol
let encoding t = t.encoding
let uid t = t.uid

let count t =
  match t.view with
  | Full -> Encoding.count t.encoding
  | Quotient q -> Array.length q.reps

let config t c =
  match t.view with
  | Full -> Encoding.decode t.encoding c
  | Quotient q -> Encoding.decode t.encoding q.reps.(c)

let code t cfg =
  match t.view with
  | Full -> Encoding.encode t.encoding cfg
  | Quotient q -> q.rep_of.(Encoding.encode t.encoding cfg)

let is_quotient t = match t.view with Full -> false | Quotient _ -> true
let base t = match t.view with Full -> t | Quotient q -> q.base

let symmetry_order t =
  match t.view with Full -> 1 | Quotient q -> Symmetry.group_order q.sym

let orbit_sizes t =
  match t.view with Full -> None | Quotient q -> Some (Array.copy q.sizes)

let representative t c = match t.view with Full -> c | Quotient q -> q.reps.(c)

let quotient_view t =
  match t.view with
  | Full -> None
  | Quotient q -> Some (q.base, q.reps, q.rep_of, q.sizes)

let same_hook a b =
  match (a, b) with None, None -> true | Some f, Some g -> f == g | _ -> false

let quotient ?relabel t =
  match t.view with
  | Quotient _ -> t
  | Full -> (
    match List.find_opt (fun (hook, _) -> same_hook hook relabel) t.quots with
    | Some (_, q) -> q
    | None ->
      let q =
        Stabobs.Obs.span "checker.quotient" @@ fun () ->
        let sym = Symmetry.build ?relabel t.protocol t.encoding in
        if Symmetry.is_trivial sym then t
        else begin
          let n = Encoding.count t.encoding in
          let rep_of = Array.make n (-1) in
          let reps_rev = ref [] in
          let nreps = ref 0 in
          (* Pool-parallel canonicalization, then a serial ascending
             sweep over the filled cache: the orbit minimum is its own
             canon, so a code is a representative exactly when
             [canon_value c = c]; the eager fill also makes the cache
             read-only for any later Domain-parallel expansion. *)
          Symmetry.fill_table sym;
          for c = 0 to n - 1 do
            let r = Symmetry.canon_value sym c in
            if r = c then begin
              rep_of.(c) <- !nreps;
              reps_rev := c :: !reps_rev;
              incr nreps
            end
            else rep_of.(c) <- rep_of.(r)
          done;
          let reps = Array.of_list (List.rev !reps_rev) in
          let sizes = Array.make !nreps 0 in
          for c = 0 to n - 1 do
            sizes.(rep_of.(c)) <- sizes.(rep_of.(c)) + 1
          done;
          {
            protocol = t.protocol;
            encoding = t.encoding;
            uid = Atomic.fetch_and_add next_uid 1;
            view = Quotient { base = t; sym; reps; rep_of; sizes };
            quots = [];
          }
        end
      in
      t.quots <- (relabel, q) :: t.quots;
      q)

let enabled t c = Protocol.enabled_processes t.protocol (config t c)

let legitimate_set t spec =
  match t.view with
  | Full ->
    let out = Array.make (count t) false in
    Encoding.iter t.encoding (fun c cfg -> out.(c) <- spec.Spec.legitimate cfg);
    out
  | Quotient q ->
    let out =
      Array.map (fun r -> spec.Spec.legitimate (Encoding.decode t.encoding r)) q.reps
    in
    if Symmetry.paranoid_enabled () then
      (* Lumpability precondition: legitimacy must be orbit-invariant. *)
      Encoding.iter t.encoding (fun c cfg ->
          if spec.Spec.legitimate cfg <> out.(q.rep_of.(c)) then
            invalid_arg
              (Printf.sprintf
                 "Statespace.legitimate_set: spec is not symmetry-invariant at code %d"
                 c));
    out

let subset_count k = (1 lsl k) - 1

(* Streamed transition enumeration: the distributed class visits the
   2^k - 1 activation subsets in ascending bitmask order without ever
   materializing the subset list twice. Each enabled process's action
   is evaluated exactly once per configuration; its local outcomes are
   turned into packed-code deltas against the source code, so a
   composite activation is an integer sum (and a product of weights for
   randomized statements) instead of a re-evaluation of every member's
   guards. Group order is identical to {!transitions}. On a quotient
   the source is the representative's configuration and every successor
   is canonicalized to its representative index on the fly. *)
let fold_transitions t cls c ~init ~f =
  let cfg = config t c in
  match Protocol.enabled_with_actions t.protocol cfg with
  | [] -> init
  | en ->
    let enc = t.encoding in
    let raw = match t.view with Full -> c | Quotient q -> q.reps.(c) in
    let to_target =
      match t.view with
      | Full -> fun code -> code
      | Quotient q -> fun code -> q.rep_of.(code)
    in
    let locals =
      List.map
        (fun (p, a) ->
          let w = Encoding.weight enc p in
          let cur = Encoding.digit enc p raw in
          let dist = a.Protocol.result cfg p in
          (p, List.map (fun (s, pw) -> ((Encoding.index_in_domain enc p s - cur) * w, pw)) dist))
        en
    in
    (* Merge equal successor codes, keeping first-occurrence order and
       summing weights — the contract of {!Protocol.step_outcomes}.
       Merging happens on base codes, before any quotient projection,
       exactly as the materializing path merged on configurations. *)
    let merge outs =
      match outs with
      | [ _ ] -> outs
      | _ ->
        let rec add acc ((code, w) as o) =
          match acc with
          | [] -> [ o ]
          | (code', w') :: rest ->
            if code = code' then (code', w' +. w) :: rest else (code', w') :: add rest o
        in
        List.fold_left add [] outs
    in
    (* Product of the members' local distributions, last process
       varying fastest, matching {!Protocol.step_outcomes}. *)
    let product subset =
      List.fold_left
        (fun acc (_, local) ->
          match local with
          | [ (d, _) ] -> List.map (fun (code, w) -> (code + d, w)) acc
          | _ ->
            List.concat_map
              (fun (code, w) -> List.map (fun (d, pw) -> (code + d, w *. pw)) local)
              acc)
        [ (raw, 1.0) ]
        subset
    in
    let step acc subset =
      let active = List.map fst subset in
      let outs = merge (product subset) in
      f acc active (List.map (fun (code, w) -> (to_target code, w)) outs)
    in
    let deterministic =
      List.for_all (fun (_, local) -> match local with [ _ ] -> true | _ -> false) locals
    in
    (match cls with
    | Central ->
      if deterministic then
        List.fold_left
          (fun acc (p, local) ->
            match local with
            | [ (d, _) ] -> f acc [ p ] [ (to_target (raw + d), 1.0) ]
            | _ -> assert false)
          init locals
      else List.fold_left (fun acc l -> step acc [ l ]) init locals
    | Synchronous -> step init locals
    | Distributed ->
      let arr = Array.of_list locals in
      let k = Array.length arr in
      if k > 20 then
        invalid_arg "Statespace: too many enabled processes to enumerate subsets";
      let acc = ref init in
      (* Ascending masks mean [mask land (mask - 1)] was already
         visited, so per-mask work is O(1): share the list tail and
         extend the memoized value of the smaller mask by the lowest
         set bit. Lists stay sorted because the lowest bit is the
         smallest enabled process. The 2^k memo tables are bounded by
         the k <= 20 guard above and freed with the configuration. *)
      let low_index mask =
        let b = mask land -mask in
        let i = ref 0 in
        let b = ref b in
        while !b > 1 do
          b := !b lsr 1;
          incr i
        done;
        !i
      in
      if deterministic then begin
        (* Every composite outcome is a single code: sum the member
           deltas directly, no distribution product to fold. *)
        let procs = Array.map fst arr in
        let deltas =
          Array.map (fun (_, l) -> match l with [ (d, _) ] -> d | _ -> assert false) arr
        in
        let sums = Array.make (1 lsl k) raw in
        let actives = Array.make (1 lsl k) [] in
        for mask = 1 to (1 lsl k) - 1 do
          let i = low_index mask in
          let rest = mask land (mask - 1) in
          let active = procs.(i) :: actives.(rest) in
          let sum = sums.(rest) + deltas.(i) in
          actives.(mask) <- active;
          sums.(mask) <- sum;
          acc := f !acc active [ (to_target sum, 1.0) ]
        done
      end
      else begin
        let subsets = Array.make (1 lsl k) [] in
        for mask = 1 to (1 lsl k) - 1 do
          let i = low_index mask in
          let rest = mask land (mask - 1) in
          let subset = arr.(i) :: subsets.(rest) in
          subsets.(mask) <- subset;
          acc := step !acc subset
        done
      end;
      !acc)

let transitions t cls c =
  List.rev
    (fold_transitions t cls c ~init:[] ~f:(fun acc active outcomes ->
         (active, outcomes) :: acc))

let successors t cls c =
  let seen = Hashtbl.create 16 in
  fold_transitions t cls c ~init:() ~f:(fun () _ outcomes ->
      List.iter (fun (c', _) -> Hashtbl.replace seen c' ()) outcomes);
  Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort Int.compare
