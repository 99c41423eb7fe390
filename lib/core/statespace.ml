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

let procs_of_mask mask =
  let out = ref [] in
  for p = Sys.int_size - 1 downto 0 do
    if mask land (1 lsl p) <> 0 then out := p :: !out
  done;
  !out

(* Index of the lowest set bit of a non-zero mask. *)
let low_index mask =
  let b = ref (mask land -mask) and i = ref 0 in
  while !b > 1 do
    b := !b lsr 1;
    incr i
  done;
  !i

(* Per-configuration scratch shared by {!expander} and
   {!enabled_mask}: a decode buffer and the enabled processes with
   their enabled actions, allocated once and overwritten by each
   [scan]. *)
type 'a scan = {
  space : 'a t;
  cfg : 'a array;
  procs : int array; (* enabled processes, ascending *)
  acts : 'a Protocol.action array; (* the enabled action of each *)
  mutable enabled : int;
  mutable mask : int; (* the enabled processes as a bitmask *)
  mutable raw : int; (* full-space code of the scanned configuration *)
}

let scan_scratch t =
  let enc = t.encoding in
  let nproc = Encoding.processes enc in
  if nproc > Sys.int_size then
    invalid_arg "Statespace.expander: more processes than bits in an activation mask";
  {
    space = t;
    cfg = Array.init nproc (fun p -> Encoding.value enc p 0);
    procs = Array.make nproc 0;
    acts =
      (match t.protocol.Protocol.actions with [] -> [||] | a :: _ -> Array.make nproc a);
    enabled = 0;
    mask = 0;
    raw = 0;
  }

(* First action whose guard holds at [p], as {!Protocol.enabled_action}. *)
let rec scan_process s p = function
  | [] -> ()
  | a :: rest ->
    if a.Protocol.guard s.cfg p then begin
      s.procs.(s.enabled) <- p;
      s.acts.(s.enabled) <- a;
      s.enabled <- s.enabled + 1;
      s.mask <- s.mask lor (1 lsl p)
    end
    else scan_process s p rest

(* Decodes configuration [c] (a representative on a quotient) into the
   buffer and evaluates every guard once. *)
let scan s c =
  let t = s.space in
  s.raw <- (match t.view with Full -> c | Quotient q -> q.reps.(c));
  Encoding.decode_into t.encoding s.raw s.cfg;
  s.enabled <- 0;
  s.mask <- 0;
  for p = 0 to Array.length s.cfg - 1 do
    scan_process s p t.protocol.Protocol.actions
  done

let rec popcount mask = if mask = 0 then 0 else 1 + popcount (mask land (mask - 1))

let group_count cls enabled =
  let k = popcount enabled in
  match cls with
  | Central -> k
  | Synchronous -> if k > 0 then 1 else 0
  | Distributed ->
    if k > 20 then invalid_arg "Statespace: too many enabled processes to enumerate subsets";
    subset_count k

let next_group cls enabled prev =
  match cls with
  | Synchronous -> enabled
  | Central ->
    let above = if prev = 0 then enabled else enabled land -(prev lsl 1) in
    above land -above
  | Distributed -> ((prev lor lnot enabled) + 1) land enabled

let enabled_mask t =
  let s = scan_scratch t in
  fun c ->
    scan s c;
    s.mask

(* The longest outcome list merged by a linear scan per outcome; a
   longer one indexes its codes in a table. Indexing every list, in one
   table reset per list, made the central expansion of Herman's ring
   of 11 (two outcomes a step) allocate 106 minor words per transition
   instead of 84 and take about 1.4x the time. *)
let short_product = 8

(* Mask-native transition enumeration. Each enabled process's action
   is evaluated exactly once per configuration; its local outcomes are
   turned into packed-code deltas against the source code, so a
   composite activation is an integer sum (and a product of weights for
   randomized statements) instead of a re-evaluation of every member's
   guards. The distributed class visits the 2^k - 1 activation subsets
   in ascending bitmask order: [mask land (mask - 1)] was visited just
   before, so the memoized sum and process mask of a subset extend the
   smaller one's by its lowest member. On a quotient the source is the
   representative's configuration and every successor is canonicalized
   to its representative index.

   All per-configuration state lives in scratch allocated once per
   expander: the scan, the deltas, and the memo, grown to the largest
   2^k met. Deterministic protocols therefore allocate only what their
   guards and statements allocate, and every weight is the literal
   [1.0], which is never boxed. Randomized protocols take the
   list-based product/merge branch, whose float operations are those
   of {!Protocol.step_outcomes}.

   With [relative] every successor is reported as its difference from
   the source code instead ({!delta_expander}). *)
let make_expander ~relative t cls =
  let enc = t.encoding in
  let s = scan_scratch t in
  let nproc = Array.length s.cfg in
  let rep_of = match t.view with Full -> [||] | Quotient q -> q.rep_of in
  let quotient = is_quotient t in
  let target code =
    if relative then code - s.raw else if quotient then rep_of.(code) else code
  in
  let procs = s.procs in
  let deltas = Array.make nproc 0 in
  let dists = Array.make nproc [] in
  let sums = ref [||] and masks = ref [||] in
  (* Randomized branch: one (delta, weight) list per enabled process. *)
  let local i =
    let p = procs.(i) in
    let w = Encoding.weight enc p and cur = Encoding.digit enc p s.raw in
    List.map (fun (st, pw) -> ((Encoding.index_in_domain enc p st - cur) * w, pw)) dists.(i)
  in
  (* Product of the members' local distributions, last process varying
     fastest, then a merge of equal codes keeping first-occurrence order
     and summing weights: the contract of {!Protocol.step_outcomes}.
     Merging happens on base codes, before any quotient projection. *)
  let emit_product ~group ~succ mask subset =
    let outs =
      List.fold_left
        (fun acc local ->
          match local with
          | [ (d, _) ] -> List.map (fun (code, w) -> (code + d, w)) acc
          | _ ->
            List.concat_map
              (fun (code, w) -> List.map (fun (d, pw) -> (code + d, w *. pw)) local)
              acc)
        [ (s.raw, 1.0) ]
        subset
    in
    let outs =
      match outs with
      | [ _ ] -> outs
      | _ when List.compare_length_with outs short_product > 0 ->
        (* Each code's slot, in first-occurrence order, indexed by a
           table of its own: a long product (a synchronous step of many
           coin flips) would otherwise merge in quadratic time. *)
        let m = List.length outs in
        let slot = Hashtbl.create m in
        let codes = Array.make m 0 and ws = Array.create_float m in
        let len = ref 0 in
        List.iter
          (fun (code, w) ->
            match Hashtbl.find slot code with
            | i -> ws.(i) <- ws.(i) +. w
            | exception Not_found ->
              Hashtbl.add slot code !len;
              codes.(!len) <- code;
              ws.(!len) <- w;
              incr len)
          outs;
        List.init !len (fun i -> (codes.(i), ws.(i)))
      | _ ->
        let rec add acc ((code, w) as o) =
          match acc with
          | [] -> [ o ]
          | (code', w') :: rest ->
            if code = code' then (code', w' +. w) :: rest else (code', w') :: add rest o
        in
        List.fold_left add [] outs
    in
    group mask;
    List.iter (fun (code, w) -> succ (target code) w) outs
  in
  fun c ~group ~succ ->
    scan s c;
    let k = s.enabled in
    let raw = s.raw in
    let deterministic = ref true in
    for i = 0 to k - 1 do
      let p = procs.(i) in
      let dist = s.acts.(i).Protocol.result s.cfg p in
      dists.(i) <- dist;
      match dist with
      | [ (st, _) ] ->
        deltas.(i) <-
          (Encoding.index_in_domain enc p st - Encoding.digit enc p raw) * Encoding.weight enc p
      | _ ->
        Protocol.check_outcomes t.protocol s.acts.(i) p dist;
        deterministic := false
    done;
    if k > 0 then
      match cls with
      | Central ->
        for i = 0 to k - 1 do
          let mask = 1 lsl procs.(i) in
          if !deterministic then begin
            group mask;
            succ (target (raw + deltas.(i))) 1.0
          end
          else emit_product ~group ~succ mask [ local i ]
        done
      | Synchronous ->
        if !deterministic then begin
          let sum = ref raw in
          for i = 0 to k - 1 do
            sum := !sum + deltas.(i)
          done;
          group s.mask;
          succ (target !sum) 1.0
        end
        else emit_product ~group ~succ s.mask (List.init k local)
      | Distributed ->
        let size = group_count cls s.mask + 1 in
        if Array.length !masks < size then begin
          sums := Array.make size 0;
          masks := Array.make size 0
        end;
        let sums = !sums and masks = !masks in
        sums.(0) <- raw;
        masks.(0) <- 0;
        if !deterministic then
          for mask = 1 to size - 1 do
            let i = low_index mask in
            let rest = mask land (mask - 1) in
            let m = masks.(rest) lor (1 lsl procs.(i)) in
            let sum = sums.(rest) + deltas.(i) in
            masks.(mask) <- m;
            sums.(mask) <- sum;
            group m;
            succ (target sum) 1.0
          done
        else begin
          (* Shared list tails, ascending members: the lowest set bit is
             the smallest enabled process. *)
          let locals = Array.init k local in
          let subsets = Array.make size [] in
          for mask = 1 to size - 1 do
            let i = low_index mask in
            let rest = mask land (mask - 1) in
            let subset = locals.(i) :: subsets.(rest) in
            subsets.(mask) <- subset;
            masks.(mask) <- masks.(rest) lor (1 lsl procs.(i));
            emit_product ~group ~succ masks.(mask) subset
          done
        end

let expander t cls = make_expander ~relative:false t cls

let delta_expander t =
  if is_quotient t then
    invalid_arg "Statespace.delta_expander: a quotient's successors are not sums of deltas";
  make_expander ~relative:true t Central

let successors t cls c =
  let codes = Growbuf.create 16 0 in
  expander t cls c ~group:ignore ~succ:(fun code _ -> Growbuf.push_int codes code);
  let sorted = Array.sub codes.data 0 codes.len in
  Array.sort Int.compare sorted;
  let out = ref [] in
  for i = Array.length sorted - 1 downto 0 do
    if i = 0 || sorted.(i) <> sorted.(i - 1) then out := sorted.(i) :: !out
  done;
  !out
