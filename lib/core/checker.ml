(* The transition relation is packed in compressed-sparse-row form.
   [fwd] is the successor relation as a {!Digraph} graph: the row of
   configuration [c] is [fwd.off.(c) .. fwd.off.(c+1) - 1] of one flat
   int32 array (off the OCaml heap), and every graph pass here
   (reachability of [L], the cycle search, Tarjan, forward closure)
   runs in that kernel over [fwd]; only [best_case_steps] builds a
   reverse, per call, for its backward distances. Successors come in
   {!Statespace.expander} order (groups in expander order, successors
   in outcome order), so the kernel's witnesses and
   component order stay stable. [enabled.(c)] is Enabled(c) as a
   process bitmask; the activated subset of each group is derived from
   it by {!Statespace.next_group}, in the order the expander emits
   groups, so no mask is stored per group.

   The group level (activated subset -> outcome distribution) has one
   of three layouts, chosen by the input: {!Protocol.deterministic},
   the class, and whether the space is a quotient.
   - [Subsets]: a deterministic protocol on a full space under the
     distributed class. Each of the 2^k - 1 groups of a configuration
     with k enabled processes has one successor of weight 1.0, the
     configuration's code plus the deltas of the activated processes
     (each changes only its own digit of the code). So [fwd] stores
     the k deltas, [Digraph.Subsets], and the kernel enumerates the
     subset sums in the expander's ascending mask order.
   - [Singleton]: any other deterministic graph (central or
     synchronous, whose k or 1 groups leave nothing to factor, or a
     quotient, whose canonicalized targets are not sums). Group [i] is
     edge [i] of [fwd], [Digraph.Edges].
   - [Outcomes]: a randomized protocol. The groups of [c] occupy
     [grp_off.(c) .. grp_off.(c+1) - 1], the successors of group [grp]
     occupy [succ_off.(grp) .. succ_off.(grp+1) - 1] of [fwd]'s edges
     (groups of a configuration are contiguous and [succ_off] is
     monotone, so [fwd.off.(c) = succ_off.(grp_off.(c))]), and
     [succ_w] carries each outcome's probability.
   Readers go through [iter_groups], [group_count] and the kernel and
   never index the packed arrays, so they read every layout alike.

   Ownership: [build_graph] allocates every array of the graph once, at
   its exact size, after the count pass; the fill pass's ranges write
   disjoint slices of them, and nothing writes the graph after
   [expand] returns: it is immutable, and shared read-only across
   domains through the expansion cache. *)
module Obs = Stabobs.Obs

type groups =
  | Singleton
  | Subsets
  | Outcomes of {
      grp_off : int array; (* length n+1 *)
      succ_off : int array; (* length ngroups+1 *)
      succ_w : float array; (* length nedges *)
    }

type packing = { enabled : int array; groups : groups }

type graph = {
  cls : Statespace.sched_class; (* the class the graph was expanded under *)
  enabled : int array; (* length n: Enabled(c) as a process bitmask *)
  groups : groups;
  fwd : Digraph.t; (* n configurations; off length n+1 *)
}

(* [iter_groups g c ~group ~succ] replays configuration [c] as the
   expander emitted it: [group active] per group in transition order,
   then [succ target weight] per outcome. *)
let iter_groups g c ~group ~succ =
  let enabled = g.enabled.(c) in
  let active = ref 0 in
  let open_group () =
    active := Statespace.next_group g.cls enabled !active;
    group !active
  in
  match g.groups with
  | Singleton | Subsets ->
    Digraph.iter_succ g.fwd c (fun v ->
        open_group ();
        succ v 1.0)
  | Outcomes { grp_off; succ_off; succ_w } ->
    (* Each group opens once the edge cursor reaches its first
       successor, so a group without outcomes opens with the next. *)
    let grp = ref grp_off.(c) and e = ref g.fwd.off.(c) in
    let open_to e =
      while !grp < grp_off.(c + 1) && succ_off.(!grp) <= e do
        open_group ();
        incr grp
      done
    in
    Digraph.iter_succ g.fwd c (fun v ->
        open_to !e;
        succ v succ_w.(!e);
        incr e);
    open_to g.fwd.off.(c + 1)

let group_count g c =
  match g.groups with
  | Singleton | Subsets -> Digraph.out_degree g.fwd c
  | Outcomes { grp_off; _ } -> grp_off.(c + 1) - grp_off.(c)

(* Expansion telemetry: totals as counters plus the per-configuration
   fan-out distribution, in logical transitions whatever the layout
   stores. The sweep behind the dist only runs when a sink is
   installed, so the dark path pays a single branch per graph build. *)
let record_expansion g =
  Obs.Counter.add Obs.configs_expanded g.fwd.n;
  Obs.Counter.add Obs.transitions_emitted (Digraph.edge_count g.fwd);
  if Obs.on () then
    for c = 0 to g.fwd.n - 1 do
      Stabobs.Dist.record_int Stabobs.Dist.checker_out_degree (Digraph.out_degree g.fwd c)
    done

let each_config ~lo ~hi f =
  for c = lo to hi - 1 do
    if c land 255 = 0 then Cancel.poll ();
    f c
  done

(* Two passes over the same enumeration. The count pass stores the
   enabled mask of [c] at [enabled.(c)] and its entry count (and, for
   the [Outcomes] layout, its group count) at index [c + 1] of [off]
   (and [grp_off]); a deterministic protocol has one successor per
   group, so its mask and count come from the guards alone: one entry
   per group, or one delta per enabled process in the [Subsets]
   layout. A serial prefix sum turns the counts into offsets, the
   packed arrays are allocated once at their exact size, and the fill
   pass writes every range at its global offsets, so the layout does
   not depend on how the pool split either pass. The [Subsets] fill
   runs {!Statespace.delta_expander}, whose groups are the enabled
   processes, and enumerates no subsets. The fill pass checks every
   configuration against the count pass: the same number of groups and
   successors (exactly one successor, or delta, of weight 1.0 per
   group in the deterministic layouts), and each group activating the
   subset {!Statespace.next_group} derives from the enabled mask. Each
   range gets its own expander scratch; spaces are immutable and
   guards and statements are pure, so ranges run concurrently. *)
let build_graph space cls =
  let n = Statespace.count space in
  let deterministic = Protocol.deterministic (Statespace.protocol space) in
  let subsets =
    deterministic && cls = Statespace.Distributed && not (Statespace.is_quotient space)
  in
  (* The fill's expander reports the groups of this class. *)
  let fill_cls = if subsets then Statespace.Central else cls in
  let enabled = Array.make n 0 in
  let off = Array.make (n + 1) 0 in
  (* Group offsets per configuration: in the deterministic layouts
     group [i] of the fill is entry [i], so they are [off] itself. *)
  let grp_off = if deterministic then off else Array.make (n + 1) 0 in
  Pool.parallel_for ~min_chunk:64 n (fun ~lo ~hi ->
      if deterministic then begin
        let enabled_mask = Statespace.enabled_mask space in
        each_config ~lo ~hi (fun c ->
            let mask = enabled_mask c in
            (* Bounds the distributed fan-out even where it is not stored. *)
            let groups = Statespace.group_count cls mask in
            enabled.(c) <- mask;
            off.(c + 1) <- (if subsets then Statespace.group_count fill_cls mask else groups))
      end
      else begin
        let expand = Statespace.expander space cls in
        let mask = ref 0 and groups = ref 0 and succs = ref 0 in
        let group m =
          mask := !mask lor m;
          incr groups
        and succ _ _ = incr succs in
        each_config ~lo ~hi (fun c ->
            mask := 0;
            groups := 0;
            succs := 0;
            expand c ~group ~succ;
            enabled.(c) <- !mask;
            grp_off.(c + 1) <- !groups;
            off.(c + 1) <- !succs)
      end);
  for c = 1 to n do
    off.(c) <- off.(c) + off.(c - 1);
    if not deterministic then grp_off.(c) <- grp_off.(c) + grp_off.(c - 1)
  done;
  let nentries = off.(n) in
  let dst = Digraph.create_edges ~nodes:n nentries in
  let groups =
    if subsets then Subsets
    else if deterministic then Singleton
    else
      Outcomes
        {
          grp_off;
          succ_off = Array.make (grp_off.(n) + 1) nentries;
          succ_w = Array.make nentries 0.0;
        }
  in
  (* A configuration never writes past its own slices: if its fill
     outruns its count, or falls short of it, the expansion fails. *)
  let disagree () =
    invalid_arg
      "Checker.expand: the fill pass disagrees with the count pass (does a protocol flagged \
       deterministic return several outcomes?)"
  in
  let misordered c mask expected =
    invalid_arg
      (Printf.sprintf
         "Checker.expand: configuration %d activates mask %#x where its enabled mask %#x gives \
          %#x (are the guards pure?)"
         c mask enabled.(c) expected)
  in
  Pool.parallel_for ~min_chunk:64 n (fun ~lo ~hi ->
      let expand =
        if subsets then Statespace.delta_expander space else Statespace.expander space cls
      in
      let cur = ref lo and prev = ref 0 in
      let grp = ref grp_off.(lo) and e = ref off.(lo) in
      let open_group mask =
        if !grp >= grp_off.(!cur + 1) then disagree ();
        prev := Statespace.next_group fill_cls enabled.(!cur) !prev;
        if mask <> !prev then misordered !cur mask !prev
      in
      let group, succ =
        match groups with
        | Singleton | Subsets ->
          (* A group opens only once the one before it has its
             successor (or delta), and takes exactly one, of weight
             1.0. *)
          ( (fun mask ->
              if !grp <> !e then disagree ();
              open_group mask;
              incr grp),
            fun entry w ->
              if !e <> !grp - 1 || w <> 1.0 then disagree ();
              Digraph.set_target dst !e entry;
              incr e )
        | Outcomes { succ_off; succ_w; _ } ->
          ( (fun mask ->
              open_group mask;
              succ_off.(!grp) <- !e;
              incr grp),
            fun code w ->
              if !e >= off.(!cur + 1) then disagree ();
              Digraph.set_target dst !e code;
              succ_w.(!e) <- w;
              incr e )
      in
      each_config ~lo ~hi (fun c ->
          cur := c;
          prev := 0;
          expand c ~group ~succ;
          if !grp <> grp_off.(c + 1) || !e <> off.(c + 1) then disagree ()));
  let rows = if subsets then Digraph.Subsets dst else Digraph.Edges dst in
  let g = { cls; enabled; groups; fwd = { Digraph.n; off; rows } } in
  record_expansion g;
  g

(* Expansions are cached per (space identity, scheduler class): the
   theorem checks, the taxonomy, the quantitative sweeps and the Markov
   construction all expand the same spaces, and re-deriving the packed
   graph was the dominant redundant cost. Bounded FIFO so long sweeps
   over many sizes do not accumulate every graph ever built. *)
let cache : (int * Statespace.sched_class, graph) Hashtbl.t = Hashtbl.create 16
let cache_queue : (int * Statespace.sched_class) Queue.t = Queue.create ()
let cache_mutex = Mutex.create ()
let cache_capacity = 8

let expand space cls =
  let key = (Statespace.uid space, cls) in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key) with
  | Some g ->
    Obs.Counter.incr Obs.graph_cache_hits;
    g
  | None ->
    Obs.Counter.incr Obs.graph_cache_misses;
    let g = Obs.span "checker.expand" (fun () -> build_graph space cls) in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt cache key with
        | Some g -> g (* a concurrent expansion won the race *)
        | None ->
          if Queue.length cache_queue >= cache_capacity then
            Hashtbl.remove cache (Queue.pop cache_queue);
          Hashtbl.add cache key g;
          Queue.add key cache_queue;
          g)

let successors g = g.fwd

let packing g : packing = { enabled = g.enabled; groups = g.groups }

let graph_edge_count g = Digraph.edge_count g.fwd

(* The row array sits outside the heap, where [Obj.reachable_words]
   sees only its header, so its payload is added by hand. *)
let graph_bytes g =
  let (Digraph.Edges entries | Digraph.Subsets entries) = g.fwd.rows in
  (Obj.reachable_words (Obj.repr g) * (Sys.word_size / 8))
  + Bigarray.Array1.size_in_bytes entries

let row_weights g c ws =
  let k = group_count g c in
  if k > 0 then begin
    let subset_weight = 1.0 /. float_of_int k in
    let first = g.fwd.off.(c) in
    for i = 0 to Digraph.out_degree g.fwd c - 1 do
      ws.(i) <-
        (match g.groups with
        | Singleton | Subsets -> subset_weight
        | Outcomes { succ_w; _ } -> succ_w.(first + i) *. subset_weight)
    done
  end

let weighted_row g c =
  let subset_weight = 1.0 /. float_of_int (group_count g c) in
  let out = ref [] in
  iter_groups g c ~group:ignore ~succ:(fun v w -> out := (v, w *. subset_weight) :: !out);
  List.rev !out

type closure_violation =
  | Empty_legitimate_set
  | Escape of { config : int; active : int list; successor : int }
  | Step_spec of { config : int; successor : int }

(* One violation loop over two enumerators of the legitimate
   configurations' steps: the graph's groups on a full space, the base
   expander over the representatives on a quotient. Closure on a
   quotient must consult the *base* relation: [step_ok] relates a
   configuration to its actual successor, and canonicalizing the
   successor first would hand it a rotated/permuted pair (e.g. the
   ring token would appear to jump to the representative's position).
   The legitimate set is orbit-invariant, so checking each
   representative's base transitions covers every orbit member.
   [source c] is the code [steps] expands and [decode] reads for
   configuration [c], and [index] maps a successor code back to a
   configuration. *)
let check_closure space g spec =
  let legitimate = Statespace.legitimate_set space spec in
  if not (Array.exists Fun.id legitimate) then Error Empty_legitimate_set
  else begin
    let decode, source, steps, index =
      match Statespace.quotient_view space with
      | None -> (Statespace.config space, Fun.id, iter_groups g, Fun.id)
      | Some (base, reps, rep_of, _) ->
        (Statespace.config base, Array.get reps, Statespace.expander base g.cls, Array.get rep_of)
    in
    let exception Found of closure_violation in
    try
      Array.iteri
        (fun c legit ->
          if legit then begin
            let active = ref 0 in
            steps (source c)
              ~group:(fun a -> active := a)
              ~succ:(fun s _ ->
                let c' = index s in
                if not legitimate.(c') then
                  raise
                    (Found
                       (Escape
                          { config = c; active = Statespace.procs_of_mask !active; successor = c' }))
                else
                  match spec.Spec.step_ok with
                  | Some ok when not (ok (decode (source c)) (decode s)) ->
                    raise (Found (Step_spec { config = c; successor = c' }))
                  | _ -> ())
          end)
        legitimate;
      Ok ()
    with Found v -> Error v
  end

let possible_convergence _space g ~legitimate =
  match Digraph.first_unreaching g.fwd ~target:legitimate with
  | None -> Ok ()
  | Some c -> Error c

type divergence = Cycle of int list | Dead_end of int

(* A configuration is terminal iff it has no transition group: every
   scheduler class allows at least one activation whenever some
   process is enabled, so "no groups" coincides with an empty enabled
   mask. *)
let terminals_of g ~legitimate =
  Obs.Counter.incr Obs.checker_terminal_scans;
  let out = ref [] in
  for c = g.fwd.n - 1 downto 0 do
    if (not legitimate.(c)) && g.enabled.(c) = 0 then out := c :: !out
  done;
  !out

(* Certain convergence given an already-computed terminal list, so
   [analyze] scans for terminals exactly once per verdict. *)
let certain_of_terminals g ~legitimate ~terminals =
  match terminals with
  | c :: _ -> Error (Dead_end c)
  | [] -> (
    match Digraph.cycle_outside g.fwd ~inside:legitimate with
    | Some cycle -> Error (Cycle cycle)
    | None -> Ok ())

let certain_convergence _space g ~legitimate =
  certain_of_terminals g ~legitimate ~terminals:(terminals_of g ~legitimate)

(* SCCs of the configurations [keep] accepts, in topological order of
   the condensation (sources first): the reverse of the kernel's
   completion order. Members are ascending. *)
let sccs ?keep g = List.rev (Digraph.sccs ?keep g.fwd)

(* True iff the SCC (given as a membership test plus member array) has
   at least one internal edge — needed to sustain an infinite execution. *)
let has_internal_edge g in_scc members =
  Array.exists (fun c -> Digraph.exists_succ g.fwd c in_scc) members

(* Processes enabled somewhere in the member set, as a bitmask. *)
let enabled_in g members = Array.fold_left (fun acc c -> acc lor g.enabled.(c)) 0 members

(* Processes firing on internal edges of the member set, as a
   bitmask. *)
let firing_in g in_scc members =
  Array.fold_left
    (fun acc c ->
      let fired = ref acc and active = ref 0 in
      iter_groups g c
        ~group:(fun a -> active := a)
        ~succ:(fun c' _ -> if in_scc c' then fired := !fired lor !active);
      !fired)
    0 members

(* Runs [f] on the membership test of [members], backed by a pass's
   one scratch [mask]: the members are set, tested, then cleared, so a
   pass over many components allocates one n-bit mask in all and pays
   per component only for its members. *)
let with_members mask members f =
  Array.iter (Bitset.set mask) members;
  let r = f (Bitset.mem mask) in
  Array.iter (Bitset.clear mask) members;
  r

(* Streett refinement for strong fairness: an SCC is accepting if every
   process enabled somewhere inside also fires inside; otherwise prune
   the states where the never-firing processes are enabled and
   recurse. The components come as a sequence, so only those tried
   are copied out of the kernel's shared decomposition of [C \ L]. *)
let strongly_fair_from g components =
  let mask = Bitset.create g.fwd.n in
  let rec refine components = Seq.find_map try_component components
  and try_component members =
    let never_firing =
      with_members mask members (fun in_scc ->
          if not (has_internal_edge g in_scc members) then None
          else Some (enabled_in g members land lnot (firing_in g in_scc members)))
    in
    match never_firing with
    | None -> None
    | Some 0 -> Some (Array.to_list members)
    | Some bad ->
      (* Remove states where a never-firing process is enabled. *)
      let enables_bad c = g.enabled.(c) land bad <> 0 in
      let kept = Array.of_seq (Seq.filter (Fun.negate enables_bad) (Array.to_seq members)) in
      if kept = [||] then None
      else refine (List.to_seq (with_members mask kept (fun keep -> sccs ~keep g)))
  in
  refine components

(* The kernel's remembered blocks of [C \ L], sources first: the pass
   behind [possible_convergence] on the same graph and set, run once. *)
let sccs_outside g legitimate =
  let blocks = Digraph.blocks_outside g.fwd ~inside:legitimate in
  let count = Digraph.block_count blocks in
  Seq.init count (fun i -> Digraph.block_members blocks (count - 1 - i))

(* Per-process fairness is NOT orbit-invariant, so the Streett checks
   cannot run on the naive symmetry quotient: a validated automorphism
   maps "p enabled at c" to "sigma(p) enabled at sigma(c)", so
   "p enabled everywhere in the SCC" can hold at the orbit minima yet
   fail at other orbit members whenever the group moves p (e.g. the
   leaf-permuting groups of coloring on stars are not transitive on
   processes), and a quotient SCC merges the group-translates of
   distinct full-space SCCs, conflating their enabled/firing sets.
   Either effect can flip a fairness verdict in either direction. The
   sound lift is the permutation-annotated quotient of the
   symmetry-reduction literature; until that exists, fairness mirrors
   [check_closure] and consults the BASE space: expand the base graph
   (shared through the expansion cache) and pull the quotient's
   legitimate set back along [rep_of] (legitimacy is orbit-invariant —
   see {!Statespace.legitimate_set}). Witnesses are then base-space
   codes. The quotient still accelerates every non-fairness verdict;
   forcing a fairness field on a quotient pays the full-space Streett
   analysis. *)
let fairness_arena space g ~legitimate =
  match Statespace.quotient_view space with
  | None -> (g, legitimate)
  | Some (base, _, rep_of, _) ->
    ( expand base g.cls,
      Array.init (Array.length rep_of) (fun c -> legitimate.(rep_of.(c))) )

(* Weak fairness needs no refinement: acceptance is monotone in the
   component (see the design notes) — check maximal SCCs only. *)
let weakly_fair_from g components =
  let mask = Bitset.create g.fwd.n in
  let accepting members =
    with_members mask members @@ fun in_scc ->
    has_internal_edge g in_scc members
    &&
    let everywhere = Array.fold_left (fun acc c -> acc land g.enabled.(c)) (-1) members in
    everywhere land lnot (firing_in g in_scc members) = 0
  in
  Seq.find accepting components |> Option.map Array.to_list

let fair_divergence fair_from space g ~legitimate =
  let g, legitimate = fairness_arena space g ~legitimate in
  fair_from g (sccs_outside g legitimate)

let strongly_fair_divergence space = fair_divergence strongly_fair_from space
let weakly_fair_divergence space = fair_divergence weakly_fair_from space

type verdict = {
  closure : (unit, closure_violation) result;
  possible : (unit, int) result;
  certain : (unit, divergence) result;
  strongly_fair_diverges : int list option Lazy.t;
  weakly_fair_diverges : int list option Lazy.t;
  dead_ends : int list;
}

let analyze space cls spec =
  Obs.span "checker.analyze" @@ fun () ->
  let g = expand space cls in
  let legitimate = Statespace.legitimate_set space spec in
  (* Shared intermediates: the terminal list is derived exactly once
     per verdict; reaching [L] is decided forward, so no reverse
     adjacency is built. The SCC decomposition of C \ L is the
     kernel's one remembered pass: [possible] runs it, and the two
     deferred fairness checks read the same answer, so callers that
     never force a fairness field skip the Streett machinery entirely,
     and forcing both fields decomposes no further. *)
  let terminals = Obs.span "checker.terminals" (fun () -> terminals_of g ~legitimate) in
  let closure = Obs.span "checker.closure" (fun () -> check_closure space g spec) in
  let certain =
    Obs.span "checker.certain" (fun () ->
        certain_of_terminals g ~legitimate ~terminals)
  in
  (* Certain convergence implies possible convergence (every execution
     reaches [L], and some execution starts anywhere), so the
     reachability pass runs only when certain convergence fails. The
     implication needs the terminal scan as well as the acyclicity of
     [C \ L]: a terminal outside [L] reaches nothing. *)
  let possible =
    if Result.is_ok certain then Ok ()
    else Obs.span "checker.possible" (fun () -> possible_convergence space g ~legitimate)
  in
  (* Certain convergence leaves no divergence at all — no cycle and no
     terminal outside [L], a fact that lifts from a quotient to its
     base (cycles lift through orbits, terminality is orbit-invariant)
     — so both fairness verdicts are [None] without any Streett work.
     This keeps fairness free on self-stabilizing quotients, where the
     base expansion would otherwise be the dominant cost. *)
  let divergence_free = Result.is_ok certain in
  let strongly_fair_diverges =
    lazy
      (if divergence_free then None
       else
         Obs.span "checker.fairness.strong" (fun () ->
             strongly_fair_divergence space g ~legitimate))
  in
  let weakly_fair_diverges =
    lazy
      (if divergence_free then None
       else
         Obs.span "checker.fairness.weak" (fun () ->
             weakly_fair_divergence space g ~legitimate))
  in
  {
    closure;
    possible;
    certain;
    strongly_fair_diverges;
    weakly_fair_diverges;
    dead_ends = terminals;
  }

let weak_stabilizing v = Result.is_ok v.closure && Result.is_ok v.possible

let self_stabilizing v = Result.is_ok v.closure && Result.is_ok v.certain

let self_stabilizing_strongly_fair v =
  Result.is_ok v.closure && v.dead_ends = [] && Lazy.force v.strongly_fair_diverges = None
  && Result.is_ok v.possible

let self_stabilizing_weakly_fair v =
  Result.is_ok v.closure && v.dead_ends = [] && Lazy.force v.weakly_fair_diverges = None
  && Result.is_ok v.possible

let pp_verdict fmt v =
  let yesno b = if b then "yes" else "no" in
  Format.fprintf fmt
    "@[<v>closure: %s@,possible convergence: %s@,certain convergence: %s@,strongly-fair divergence: %s@,weakly-fair divergence: %s@,illegitimate terminals: %d@]"
    (yesno (Result.is_ok v.closure))
    (yesno (Result.is_ok v.possible))
    (yesno (Result.is_ok v.certain))
    (match Lazy.force v.strongly_fair_diverges with None -> "none" | Some w -> Printf.sprintf "witness of %d states" (List.length w))
    (match Lazy.force v.weakly_fair_diverges with None -> "none" | Some w -> Printf.sprintf "witness of %d states" (List.length w))
    (List.length v.dead_ends)

let pseudo_stabilizing _space g ~legitimate =
  match terminals_of g ~legitimate with
  | c :: _ -> Error (Dead_end c)
  | [] ->
    let mask = Bitset.create g.fwd.n in
    let offending =
      List.find_opt
        (fun members ->
          with_members mask members (fun in_scc -> has_internal_edge g in_scc members)
          && Array.exists (fun c -> not legitimate.(c)) members)
        (sccs g)
    in
    (match offending with
    | Some members -> Error (Cycle (Array.to_list members))
    | None -> Ok ())

let hamming space c1 c2 =
  let p = Statespace.protocol space in
  if Array.length c1 <> Array.length c2 then
    invalid_arg "Checker.hamming: configuration length mismatch";
  let count = ref 0 in
  Array.iteri (fun i s -> if not (p.Protocol.equal s c2.(i)) then incr count) c1;
  !count

(* Configurations reachable from L by corrupting at most k process
   memories: BFS in the "one corruption" graph. Codes go through
   [Statespace.config]/[Statespace.code], so on a quotient the BFS runs
   over canonicalized corruptions — sound because Hamming distance to an
   orbit is the minimum over its members and corruption commutes with
   the group action. *)
let k_faulty_set space ~legitimate ~k =
  let n = Statespace.count space in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  Array.iteri
    (fun c ok ->
      if ok then begin
        dist.(c) <- 0;
        Queue.add c queue
      end)
    legitimate;
  let p = Statespace.protocol space in
  let processes = Stabgraph.Graph.size p.Protocol.graph in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if dist.(c) < k then begin
      let cfg = Statespace.config space c in
      for i = 0 to processes - 1 do
        let original = cfg.(i) in
        List.iter
          (fun s ->
            if not (p.Protocol.equal s original) then begin
              cfg.(i) <- s;
              let c' = Statespace.code space cfg in
              if dist.(c') = max_int then begin
                dist.(c') <- dist.(c) + 1;
                Queue.add c' queue
              end
            end)
          (p.Protocol.domain i);
        cfg.(i) <- original
      done
    end
  done;
  Array.map (fun d -> d <> max_int) dist

(* Configurations the faulty set cannot reach cannot occur, so they
   count as legitimate. *)
let k_stabilizing space g ~legitimate ~k =
  let reachable = Digraph.reach g.fwd ~seeds:(k_faulty_set space ~legitimate ~k) in
  certain_convergence space g ~legitimate:(Array.mapi (fun c l -> l || not reachable.(c)) legitimate)

let best_case_steps _space g ~legitimate =
  Digraph.distances (Digraph.reverse g.fwd) ~seeds:legitimate

(* Certain convergence is "no terminal outside L, and C \ L acyclic";
   the kernel's outside-set DFS checks the second half and yields the
   longest escape from every configuration in the same pass. After
   [analyze] or [certain_convergence] on the same graph and [L], the
   kernel's memo answers without a second search. *)
let worst_case_steps _space g ~legitimate =
  match terminals_of g ~legitimate with
  | _ :: _ -> None
  | [] -> Result.to_option (Digraph.heights_outside g.fwd ~inside:legitimate)

let convergence_radius_histogram space g ~legitimate =
  let dist = best_case_steps space g ~legitimate in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun d ->
      let key = if d = max_int then -1 else d in
      Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    dist;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare

(* The synchronous step of a deterministic protocol as a function:
   [step c] is the code of [c]'s one synchronous successor, or [-1] for
   a terminal configuration. Raises [Invalid_argument], naming [fn], on
   a randomized protocol or a step with several outcomes. *)
let sync_step fn space =
  let fail why = invalid_arg (Printf.sprintf "Checker.%s: %s" fn why) in
  if (Statespace.protocol space).Protocol.randomized then fail "randomized protocol";
  let expand = Statespace.expander space Statespace.Synchronous in
  let next = ref (-1) in
  let succ c' _ =
    if !next >= 0 then fail "non-deterministic step";
    next := c'
  in
  fun c ->
    next := -1;
    expand c ~group:ignore ~succ;
    !next

let synchronous_lasso space ~init =
  let step = sync_step "synchronous_lasso" space in
  let seen = Hashtbl.create 64 in
  let rec go c position acc =
    match Hashtbl.find_opt seen c with
    | Some first ->
      let visited = List.rev acc in
      (List.filteri (fun i _ -> i < first) visited, List.filteri (fun i _ -> i >= first) visited)
    | None ->
      Hashtbl.add seen c position;
      let c' = step c in
      if c' < 0 then (List.rev (c :: acc), []) else go c' (position + 1) (c :: acc)
  in
  go init 0 []

(* Functional-graph coloring: walk from each configuration whose limit
   is unknown, stamping every configuration on the path with its
   position, until the walk falls off a terminal configuration (limit
   0), meets a known limit, or meets its own path (a new cycle of the
   position difference); then walk the path again to record the limit.
   A stamp outlives its walk harmlessly: every stamped configuration
   has a known limit by then, which is read first. *)
let sync_orbit_census space =
  let step = sync_step "sync_orbit_census" space in
  let n = Statespace.count space in
  let succ = Array.init n step in
  let limit = Array.make n (-1) and stamp = Array.make n (-1) in
  let rec walk c position =
    if c < 0 then 0
    else if limit.(c) >= 0 then limit.(c)
    else if stamp.(c) >= 0 then position - stamp.(c)
    else begin
      stamp.(c) <- position;
      walk succ.(c) (position + 1)
    end
  in
  let rec record length c =
    if c >= 0 && limit.(c) < 0 then begin
      limit.(c) <- length;
      record length succ.(c)
    end
  in
  for start = 0 to n - 1 do
    if limit.(start) < 0 then record (walk start 0) start
  done;
  let counts = Array.make (n + 1) 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) limit;
  let census = ref [] in
  for l = n downto 0 do
    if counts.(l) > 0 then census := (l, counts.(l)) :: !census
  done;
  !census

let sync_closed_set space member =
  let step = sync_step "sync_closed_set" space in
  let n = Statespace.count space in
  let inside c = member (Statespace.config space c) in
  let rec scan c =
    if c = n then None
    else
      let c' = if inside c then step c else -1 in
      if c' >= 0 && not (inside c') then Some (c, c') else scan (c + 1)
  in
  scan 0
