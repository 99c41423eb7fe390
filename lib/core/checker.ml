(* The transition relation is packed in compressed-sparse-row form.
   [fwd] is the successor relation as a {!Digraph} CSR: all successors
   of configuration [c] occupy [fwd.off.(c) .. fwd.off.(c+1) - 1] of
   the flat int32 edge array [fwd.dst] (off the OCaml heap, read
   through {!Digraph.target}), and every graph pass here (backward
   reachability, the cycle search, Tarjan, forward closure) runs in
   that kernel over [fwd] or its memoized reverse. Successors come in
   {!Statespace.transitions} order (groups in transition order,
   successors in outcome order), so the kernel's witnesses and
   component order stay stable. [enabled.(c)] is Enabled(c) as a
   process bitmask; the activated subset of each group is derived from
   it by {!Statespace.next_group}, in the order the expander emits
   groups, so no mask is stored per group.

   The group level (activated subset -> outcome distribution) has one
   of two layouts, chosen by {!Protocol.deterministic}:
   - [Singleton]: a deterministic protocol gives every group exactly
     one successor of weight 1.0, so group [i] of the graph is edge [i]
     of [fwd] and nothing more is stored;
   - [Outcomes]: the groups of [c] occupy
     [grp_off.(c) .. grp_off.(c+1) - 1], the successors of group [grp]
     occupy [succ_off.(grp) .. succ_off.(grp+1) - 1] of [fwd.dst]
     (groups of a configuration are contiguous and [succ_off] is
     monotone, so [fwd.off.(c) = succ_off.(grp_off.(c))]), and
     [succ_w] carries each outcome's probability.
   Readers go through [iter_groups], [group_count] and [weight] and
   never index the group arrays, so they read both layouts alike.

   Ownership: [build_graph] allocates every array of the graph once, at
   its exact size, after the count pass; the fill pass's ranges write
   disjoint slices of them, and nothing else writes them after
   [expand] returns. The graph is shared read-only through the
   expansion cache, except for [rev], which is filled on first
   demand. *)
module Obs = Stabobs.Obs

type groups =
  | Singleton
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
  fwd : Digraph.t; (* n configurations; off length n+1; dst length nedges *)
  mutable rev : Digraph.t option;
      (* reverse of [fwd], built on first demand and shared by every
         backward pass (possible convergence, best-case BFS) *)
}

(* Successor range of configuration [c] in the flat [fwd.dst] array. *)
let succ_lo g c = g.fwd.off.(c)
let succ_hi g c = g.fwd.off.(c + 1)

(* [iter_groups g c f] calls [f active lo hi] on each group of [c] in
   transition order: its activated mask and its successor range
   [lo, hi) of [fwd.dst]. *)
let iter_groups g c f =
  let enabled = g.enabled.(c) in
  let active = ref 0 in
  match g.groups with
  | Singleton ->
    for i = succ_lo g c to succ_hi g c - 1 do
      active := Statespace.next_group g.cls enabled !active;
      f !active i (i + 1)
    done
  | Outcomes { grp_off; succ_off; _ } ->
    for grp = grp_off.(c) to grp_off.(c + 1) - 1 do
      active := Statespace.next_group g.cls enabled !active;
      f !active succ_off.(grp) succ_off.(grp + 1)
    done

let group_count g c =
  match g.groups with
  | Singleton -> succ_hi g c - succ_lo g c
  | Outcomes { grp_off; _ } -> grp_off.(c + 1) - grp_off.(c)

(* Outcome probability of edge [i] of [fwd.dst]. *)
let[@inline] weight g i =
  match g.groups with Singleton -> 1.0 | Outcomes { succ_w; _ } -> succ_w.(i)

(* Expansion telemetry: totals as counters plus the per-configuration
   fan-out distribution. The sweep behind the dist only runs when a
   sink is installed, so the dark path pays a single branch per graph
   build. *)
let record_expansion g =
  Obs.Counter.add Obs.configs_expanded g.fwd.n;
  Obs.Counter.add Obs.transitions_emitted (Bigarray.Array1.dim g.fwd.dst);
  if Obs.on () then
    for c = 0 to g.fwd.n - 1 do
      Stabobs.Dist.record_int Stabobs.Dist.checker_out_degree (succ_hi g c - succ_lo g c)
    done

let count_grain = Pool.Grain.site "checker.expand.count"
let fill_grain = Pool.Grain.site "checker.expand.fill"

let each_config ~lo ~hi f =
  for c = lo to hi - 1 do
    if c land 255 = 0 then Cancel.poll ();
    f c
  done

(* Two passes over the same enumeration. The count pass stores the
   enabled mask of [c] at [enabled.(c)] and its successor count (and,
   for the [Outcomes] layout, its group count) at index [c + 1] of
   [off] (and [grp_off]); a deterministic protocol has one successor
   per group, so its mask and count come from the guards alone. A
   serial prefix sum turns the counts into offsets, the packed arrays
   are allocated once at their exact size, and the fill pass writes
   every range at its global offsets, so the layout does not depend on
   how the pool split either pass. The fill pass checks every
   configuration against the count pass: the same number of groups
   and successors (exactly one successor of weight 1.0 per group in
   the [Singleton] layout), and each group activating the subset
   {!Statespace.next_group} derives from the enabled mask. Each range
   gets its own expander scratch; spaces are immutable and guards and
   statements are pure, so ranges run concurrently. *)
let build_graph space cls =
  let n = Statespace.count space in
  let deterministic = Protocol.deterministic (Statespace.protocol space) in
  let enabled = Array.make n 0 in
  let off = Array.make (n + 1) 0 in
  (* Group offsets per configuration: in the [Singleton] layout group
     [i] is edge [i], so they are [off] itself. *)
  let grp_off = if deterministic then off else Array.make (n + 1) 0 in
  Pool.parallel_for ~site:count_grain ~min_chunk:64 n (fun ~lo ~hi ->
      if deterministic then begin
        let enabled_mask = Statespace.enabled_mask space in
        each_config ~lo ~hi (fun c ->
            let mask = enabled_mask c in
            enabled.(c) <- mask;
            off.(c + 1) <- Statespace.group_count cls mask)
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
  let nedges = off.(n) in
  let dst = Digraph.create_edges ~nodes:n nedges in
  let groups =
    if deterministic then Singleton
    else
      Outcomes
        { grp_off; succ_off = Array.make (grp_off.(n) + 1) nedges; succ_w = Array.make nedges 0.0 }
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
  Pool.parallel_for ~site:fill_grain ~min_chunk:64 n (fun ~lo ~hi ->
      let expand = Statespace.expander space cls in
      let cur = ref lo and prev = ref 0 in
      let grp = ref grp_off.(lo) and e = ref off.(lo) in
      let open_group mask =
        if !grp >= grp_off.(!cur + 1) then disagree ();
        prev := Statespace.next_group cls enabled.(!cur) !prev;
        if mask <> !prev then misordered !cur mask !prev
      in
      let group, succ =
        match groups with
        | Singleton ->
          (* A group opens only once the one before it has its
             successor, and takes exactly one, of weight 1.0. *)
          ( (fun mask ->
              if !grp <> !e then disagree ();
              open_group mask;
              incr grp),
            fun code w ->
              if !e <> !grp - 1 || w <> 1.0 then disagree ();
              Digraph.set_target dst !e code;
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
  let g = { cls; enabled; groups; fwd = { Digraph.n; off; dst }; rev = None } in
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

let reverse g =
  match g.rev with
  | Some rev -> rev
  | None ->
    Obs.Counter.incr Obs.checker_reverse_builds;
    let rev = Obs.span "checker.reverse" (fun () -> Digraph.reverse g.fwd) in
    g.rev <- Some rev;
    rev

let successors g = g.fwd

let packing g : packing = { enabled = g.enabled; groups = g.groups }

let graph_edge_count g = Bigarray.Array1.dim g.fwd.dst

(* The edge arrays sit outside the heap, where [Obj.reachable_words]
   sees only their headers, so their payloads are added by hand. *)
let graph_bytes g =
  let payload (d : Digraph.t) = Bigarray.Array1.size_in_bytes d.dst in
  (Obj.reachable_words (Obj.repr g) * (Sys.word_size / 8))
  + payload g.fwd
  + Option.fold ~none:0 ~some:payload g.rev

let weighted_row g c =
  let k = group_count g c in
  if k = 0 then []
  else begin
    let subset_weight = 1.0 /. float_of_int k in
    let out = ref [] in
    for i = succ_hi g c - 1 downto succ_lo g c do
      out := (Digraph.target g.fwd.dst i, weight g i *. subset_weight) :: !out
    done;
    !out
  end

let iter_weighted_row g c f =
  let k = group_count g c in
  if k > 0 then begin
    let subset_weight = 1.0 /. float_of_int k in
    for i = succ_lo g c to succ_hi g c - 1 do
      f (Digraph.target g.fwd.dst i) (weight g i *. subset_weight)
    done
  end

type closure_violation =
  | Empty_legitimate_set
  | Escape of { config : int; active : int list; successor : int }
  | Step_spec of { config : int; successor : int }

(* Closure on a quotient must consult the *base* relation: [step_ok]
   relates a configuration to its actual successor, and canonicalizing
   the successor first would hand it a rotated/permuted pair (e.g. the
   ring token would appear to jump to the representative's position).
   The legitimate set is orbit-invariant, so checking each
   representative's base transitions covers every orbit member. *)
let check_closure_quotient space base reps rep_of cls spec =
  let legitimate = Statespace.legitimate_set space spec in
  if not (Array.exists Fun.id legitimate) then Error Empty_legitimate_set
  else begin
    let expand = Statespace.expander base cls in
    let violation = ref None in
    (let exception Found in
     try
       for i = 0 to Array.length reps - 1 do
         if legitimate.(i) then begin
           let src = Statespace.config base reps.(i) in
           let active = ref 0 in
           expand reps.(i)
             ~group:(fun mask -> active := mask)
             ~succ:(fun s _ ->
               let j = rep_of.(s) in
               if not legitimate.(j) then begin
                 violation :=
                   Some
                     (Escape
                        { config = i; active = Statespace.procs_of_mask !active; successor = j });
                 raise Found
               end
               else
                 match spec.Spec.step_ok with
                 | None -> ()
                 | Some ok ->
                   if not (ok src (Statespace.config base s)) then begin
                     violation := Some (Step_spec { config = i; successor = j });
                     raise Found
                   end)
         end
       done
     with Found -> ());
    match !violation with None -> Ok () | Some v -> Error v
  end

let check_closure_full space g spec =
  let legitimate = Statespace.legitimate_set space spec in
  if not (Array.exists Fun.id legitimate) then Error Empty_legitimate_set
  else begin
    let violation = ref None in
    (let exception Found in
     try
       for c = 0 to g.fwd.n - 1 do
         if legitimate.(c) then begin
           iter_groups g c (fun active lo hi ->
               for i = lo to hi - 1 do
                 let c' = Digraph.target g.fwd.dst i in
                 if not legitimate.(c') then begin
                   violation :=
                     Some
                       (Escape
                          { config = c; active = Statespace.procs_of_mask active; successor = c' });
                   raise Found
                 end
                 else
                   match spec.Spec.step_ok with
                   | None -> ()
                   | Some ok ->
                     if
                       not (ok (Statespace.config space c) (Statespace.config space c'))
                     then begin
                       violation := Some (Step_spec { config = c; successor = c' });
                       raise Found
                     end
               done)
         end
       done
     with Found -> ());
    match !violation with None -> Ok () | Some v -> Error v
  end

let check_closure space g spec =
  match Statespace.quotient_view space with
  | Some (base, reps, rep_of, _) ->
    check_closure_quotient space base reps rep_of g.cls spec
  | None -> check_closure_full space g spec

let possible_convergence _space g ~legitimate =
  match Array.find_index not (Digraph.reach (reverse g) ~seeds:legitimate) with
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

let illegitimate_terminals space ~legitimate =
  Obs.Counter.incr Obs.checker_terminal_scans;
  let n = Statespace.count space in
  let out = ref [] in
  for c = n - 1 downto 0 do
    if (not legitimate.(c)) && Statespace.enabled space c = [] then out := c :: !out
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
let sccs ?keep g =
  Obs.Counter.incr Obs.checker_scc_builds;
  List.rev (Digraph.sccs ?keep g.fwd)

(* True iff the SCC (given as a membership test plus member array) has
   at least one internal edge — needed to sustain an infinite execution. *)
let has_internal_edge g in_scc members =
  Array.exists
    (fun c ->
      let hi = succ_hi g c in
      let rec go i = i < hi && (in_scc (Digraph.target g.fwd.dst i) || go (i + 1)) in
      go (succ_lo g c))
    members

(* Processes enabled somewhere in the member set, as a bitmask. *)
let enabled_in g members = Array.fold_left (fun acc c -> acc lor g.enabled.(c)) 0 members

(* Processes firing on internal edges of the member set, as a
   bitmask. *)
let firing_in g in_scc members =
  Array.fold_left
    (fun acc c ->
      let fired = ref acc in
      iter_groups g c (fun active lo hi ->
          for i = lo to hi - 1 do
            if in_scc (Digraph.target g.fwd.dst i) then fired := !fired lor active
          done);
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
   recurse. The top-level SCC decomposition is taken as an argument so
   [analyze] can share it with the weak-fairness check. *)
let strongly_fair_from g components =
  let mask = Bitset.create g.fwd.n in
  let rec refine components =
    List.fold_left
      (fun acc members -> match acc with Some _ -> acc | None -> try_component members)
      None components
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
      else refine (with_members mask kept (fun keep -> sccs ~keep g))
  in
  refine components

let sccs_outside g legitimate = sccs ~keep:(fun c -> not legitimate.(c)) g

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

let strongly_fair_divergence space g ~legitimate =
  let g, legitimate = fairness_arena space g ~legitimate in
  strongly_fair_from g (sccs_outside g legitimate)

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
  List.find_opt accepting components |> Option.map Array.to_list

let weakly_fair_divergence space g ~legitimate =
  let g, legitimate = fairness_arena space g ~legitimate in
  weakly_fair_from g (sccs_outside g legitimate)

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
  (* Shared intermediates: the reverse adjacency (memoized on [g]) and
     the terminal list are derived exactly once per verdict. The SCC
     decomposition of C \ L feeds only the two fairness checks, so it
     is deferred with them: callers that never force a fairness field
     (weak/self verdicts) skip the Streett machinery entirely, and
     forcing both fields still decomposes once. *)
  let terminals = Obs.span "checker.terminals" (fun () -> terminals_of g ~legitimate) in
  (* Fairness runs in the base space when [space] is a quotient (see
     [fairness_arena]); the arena and the SCC decomposition it feeds
     are shared by both deferred fairness fields. *)
  let arena = lazy (fairness_arena space g ~legitimate) in
  let components =
    lazy
      (let fg, fleg = Lazy.force arena in
       Obs.span "checker.sccs" (fun () -> sccs_outside fg fleg))
  in
  let closure = Obs.span "checker.closure" (fun () -> check_closure space g spec) in
  let possible =
    Obs.span "checker.possible" (fun () -> possible_convergence space g ~legitimate)
  in
  let certain =
    Obs.span "checker.certain" (fun () ->
        certain_of_terminals g ~legitimate ~terminals)
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
             strongly_fair_from (fst (Lazy.force arena)) (Lazy.force components)))
  in
  let weakly_fair_diverges =
    lazy
      (if divergence_free then None
       else
         Obs.span "checker.fairness.weak" (fun () ->
             weakly_fair_from (fst (Lazy.force arena)) (Lazy.force components)))
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

let k_stabilizing space g ~legitimate ~k =
  let faulty = k_faulty_set space ~legitimate ~k in
  let reachable = Digraph.reach g.fwd ~seeds:faulty in
  (* Certain convergence restricted to the reachable sub-system:
     configurations outside it are treated as if legitimate (they
     cannot occur). *)
  let restricted = Array.mapi (fun c l -> l || not reachable.(c)) legitimate in
  let dead_end = List.find_opt (fun c -> reachable.(c)) (terminals_of g ~legitimate) in
  match dead_end with
  | Some c -> Error (Dead_end c)
  | None -> (
    match Digraph.cycle_outside g.fwd ~inside:restricted with
    | Some cycle -> Error (Cycle cycle)
    | None -> Ok ())

let best_case_steps _space g ~legitimate = Digraph.distances (reverse g) ~seeds:legitimate

(* Certain convergence is "no terminal outside L, and C \ L acyclic";
   the kernel's outside-set DFS checks the second half and yields the
   longest escape from every configuration in the same pass. *)
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

let synchronous_lasso space ~init =
  if (Statespace.protocol space).Protocol.randomized then
    invalid_arg "Checker.synchronous_lasso: randomized protocol";
  let seen = Hashtbl.create 64 in
  let rec go c position acc =
    match Hashtbl.find_opt seen c with
    | Some first ->
      let visited = List.rev acc in
      let prefix = List.filteri (fun i _ -> i < first) visited in
      let cycle = List.filteri (fun i _ -> i >= first) visited in
      (prefix, cycle)
    | None -> (
      Hashtbl.add seen c position;
      match Statespace.transitions space Statespace.Synchronous c with
      | [] -> (List.rev (c :: acc), [])
      | [ (_, [ (c', _) ]) ] -> go c' (position + 1) (c :: acc)
      | _ -> invalid_arg "Checker.synchronous_lasso: non-deterministic step")
  in
  go init 0 []

let sync_orbit_census space =
  if (Statespace.protocol space).Protocol.randomized then
    invalid_arg "Checker.sync_orbit_census: randomized protocol";
  let n = Statespace.count space in
  (* successor function: -1 for terminal configurations *)
  let succ = Array.make n (-1) in
  for c = 0 to n - 1 do
    match Statespace.transitions space Statespace.Synchronous c with
    | [] -> ()
    | [ (_, [ (c', _) ]) ] -> succ.(c) <- c'
    | _ -> invalid_arg "Checker.sync_orbit_census: non-deterministic step"
  done;
  (* Standard functional-graph coloring: walk unvisited paths, detect
     the cycle (or terminal) they fall into, memoize the limit length
     for every node on the path. *)
  let limit = Array.make n (-2) in
  for start = 0 to n - 1 do
    if limit.(start) = -2 then begin
      (* Walk forward, marking the path with a temporary stamp. *)
      let path = ref [] in
      let on_path = Hashtbl.create 16 in
      let rec walk c position =
        if c = -1 then 0 (* fell off a terminal configuration *)
        else if limit.(c) <> -2 then limit.(c)
        else
          match Hashtbl.find_opt on_path c with
          | Some first ->
            (* new cycle of length position - first *)
            position - first
          | None ->
            Hashtbl.add on_path c position;
            path := c :: !path;
            walk succ.(c) (position + 1)
      in
      let length = walk start 0 in
      List.iter (fun c -> if limit.(c) = -2 then limit.(c) <- length) !path
    end
  done;
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun l -> Hashtbl.replace tbl l (1 + Option.value (Hashtbl.find_opt tbl l) ~default:0))
    limit;
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) tbl [] |> List.sort compare

let sync_closed_set space member =
  let n = Statespace.count space in
  let result = ref None in
  (let exception Found in
   try
     for c = 0 to n - 1 do
       if member (Statespace.config space c) then
         List.iter
           (fun (_, outcomes) ->
             List.iter
               (fun (c', _) ->
                 if not (member (Statespace.config space c')) then begin
                   result := Some (c, c');
                   raise Found
                 end)
               outcomes)
           (Statespace.transitions space Statespace.Synchronous c)
     done
   with Found -> ());
  !result
