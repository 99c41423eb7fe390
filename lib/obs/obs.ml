external now_ns : unit -> int = "stabobs_clock_ns" [@@noalloc]

(* --- levels --- *)

type level = Quiet | Error | Warn | Info | Debug

let rank = function Quiet -> 0 | Error -> 1 | Warn -> 2 | Info -> 3 | Debug -> 4
let level_name = function
  | Quiet -> "quiet"
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let current_level = Atomic.make (rank Warn)
let set_level l = Atomic.set current_level (rank l)

let would_log l = rank l > 0 && rank l <= Atomic.get current_level

(* --- events and the sink stack --- *)

type gc_delta = {
  alloc_bytes : int;
  minor_words : int;
  minor_collections : int;
  major_collections : int;
}

type event =
  | Span_begin of {
      name : string;
      ts : int;
      domain : int;
      args : (string * Json.t) list;
    }
  | Span_end of {
      name : string;
      ts : int;
      dur : int;
      domain : int;
      args : (string * Json.t) list;
      gc : gc_delta option;
      counters : (string * int) list;
    }
  | Message of { level : level; ts : int; domain : int; text : string }

type sink = { emit : event -> unit; close : unit -> unit }

let sinks : sink list Atomic.t = Atomic.make []

(* One atomic word gates every instrumentation site: bit 0 is "a sink
   is installed", bit 1 is "the flight recorder is on". [on] answers
   "is anyone streaming events" (sinks only) and keeps gating the
   unbounded-retention paths (Dist samples, span counter snapshots);
   [hot] answers "does anyone want events at all" and gates the event
   constructors themselves. The dark path stays one atomic load plus a
   branch either way. *)
let sink_bit = 1
let flight_bit = 2
let state = Atomic.make 0

let rec set_state_bit b =
  let cur = Atomic.get state in
  if not (Atomic.compare_and_set state cur (cur lor b)) then set_state_bit b

let rec clear_state_bit b =
  let cur = Atomic.get state in
  if not (Atomic.compare_and_set state cur (cur land lnot b)) then
    clear_state_bit b

let on () = Atomic.get state land sink_bit <> 0
let hot () = Atomic.get state <> 0
let flight_on () = Atomic.get state land flight_bit <> 0

let rec install s =
  let cur = Atomic.get sinks in
  if not (Atomic.compare_and_set sinks cur (cur @ [ s ])) then install s
  else set_state_bit sink_bit

let clear () =
  let cur = Atomic.exchange sinks [] in
  clear_state_bit sink_bit;
  List.iter (fun s -> s.close ()) cur

(* The flight recorder lives in [Flight] (which depends on this
   module), so it reaches the event stream through a hook installed at
   enable time rather than a direct call. *)
let flight_hook : (event -> unit) Atomic.t = Atomic.make ignore

let set_flight_hook = function
  | Some f ->
    Atomic.set flight_hook f;
    set_state_bit flight_bit
  | None ->
    clear_state_bit flight_bit;
    Atomic.set flight_hook ignore

let emit e =
  if Atomic.get state land flight_bit <> 0 then (Atomic.get flight_hook) e;
  List.iter (fun s -> s.emit e) (Atomic.get sinks)

let self_id () = (Domain.self () :> int)

(* --- counters --- *)

module Counter = struct
  (* One accumulator cell per (counter, domain), created through DLS on
     the domain's first touch and registered in the counter's cell
     list; cells of terminated domains stay registered so their totals
     survive the join. Each cell has a single writer (its domain), so
     plain atomic load/store suffices — no RMW contention anywhere on
     the hot path. *)
  type t = {
    cname : string;
    mu : Mutex.t;
    cells : int Atomic.t list ref;
    key : int Atomic.t Domain.DLS.key;
  }

  let registry_mu = Mutex.create ()
  let registry : t list ref = ref []

  let make cname =
    let mu = Mutex.create () in
    let cells = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let cell = Atomic.make 0 in
          Mutex.protect mu (fun () -> cells := cell :: !cells);
          cell)
    in
    let t = { cname; mu; cells; key } in
    Mutex.protect registry_mu (fun () -> registry := t :: !registry);
    t

  let add t k =
    if k <> 0 && hot () then begin
      let cell = Domain.DLS.get t.key in
      Atomic.set cell (Atomic.get cell + k)
    end

  let incr t = add t 1

  let value t =
    let cells = Mutex.protect t.mu (fun () -> !(t.cells)) in
    List.fold_left (fun acc cell -> acc + Atomic.get cell) 0 cells

  let all () = List.rev (Mutex.protect registry_mu (fun () -> !registry))

  let snapshot () = List.map (fun t -> (t.cname, value t)) (all ())

  let reset_all () =
    List.iter
      (fun t ->
        let cells = Mutex.protect t.mu (fun () -> !(t.cells)) in
        List.iter (fun cell -> Atomic.set cell 0) cells)
      (all ())
end

let configs_expanded = Counter.make "configs_expanded"
let transitions_emitted = Counter.make "transitions_emitted"
let graph_cache_hits = Counter.make "graph_cache_hits"
let graph_cache_misses = Counter.make "graph_cache_misses"
let montecarlo_runs = Counter.make "montecarlo_runs"
let fault_injections = Counter.make "fault_injections"
let engine_runs = Counter.make "engine_runs"
let engine_steps = Counter.make "engine_steps"
let symmetry_orbits = Counter.make "symmetry.orbits"
let symmetry_canon_hits = Counter.make "symmetry.canon-hit"
let symmetry_canon_misses = Counter.make "symmetry.canon-miss"
let gc_minor_words = Counter.make "gc.minor_words"
let gc_major_collections = Counter.make "gc.major_collections"
let markov_solve_sweeps = Counter.make "markov.solve.sweeps"
let checker_reverse_builds = Counter.make "checker.reverse_builds"
let checker_terminal_scans = Counter.make "checker.terminal_scans"
let checker_scc_builds = Counter.make "checker.scc_builds"
let checker_heights_passes = Counter.make "checker.heights_passes"
let checker_reaches_passes = Counter.make "checker.reaches_passes"
let pool_tasks = Counter.make "pool.tasks"
let pool_steals = Counter.make "pool.steals"
let pool_splits = Counter.make "pool.splits"

(* --- messages --- *)

let message level text =
  if would_log level then begin
    emit (Message { level; ts = now_ns (); domain = self_id (); text });
    Printf.eprintf "%s\n%!" text
  end

let logf level fmt =
  if would_log level then Format.kasprintf (message level) fmt
  else Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt

let errorf fmt = logf Error fmt
let warnf fmt = logf Warn fmt
let infof fmt = logf Info fmt

(* --- spans --- *)

(* GC sampling is a global mode on top of the sink guard: spans only
   pay for the Gc.quick_stat pair when a sink is installed AND the
   mode is on, so the dark path is untouched and the default lit path
   stays allocation-light. *)
let gc_mode = Atomic.make false
let set_gc_sampling b = Atomic.set gc_mode b

let word_bytes = Sys.word_size / 8

(* Ambient tags: a Domain-local list of (key, json) pairs appended to
   the args of every span event the domain emits while a [with_tags]
   scope is active. This is how the campaign runner threads the cell
   id and worker index into every nested span without touching the
   instrumentation sites. Dark path: [f ()] and nothing else. *)
let tags_key : (string * Json.t) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let current_tags () = Domain.DLS.get tags_key

let with_tags tags f =
  if not (hot ()) then f ()
  else begin
    let prev = Domain.DLS.get tags_key in
    Domain.DLS.set tags_key (prev @ tags);
    Fun.protect f ~finally:(fun () -> Domain.DLS.set tags_key prev)
  end

(* [Gc.quick_stat] only folds the young generation into [minor_words]
   at a minor collection, so its delta reads 0 across any span that
   doesn't trigger one; [Gc.minor_words ()] reads the allocation
   pointer directly and is exact (and noalloc). Pair it with the
   quick_stat for the collection counts and major-heap words. *)
type gc_sample = { words : float; stat : Gc.stat }

let gc_sample () = { words = Gc.minor_words (); stat = Gc.quick_stat () }

let gc_delta_of g0 g1 =
  let minor = int_of_float (g1.words -. g0.words) in
  let major = int_of_float (g1.stat.Gc.major_words -. g0.stat.Gc.major_words) in
  let promoted =
    int_of_float (g1.stat.Gc.promoted_words -. g0.stat.Gc.promoted_words)
  in
  {
    (* total allocation: everything that entered the minor heap plus
       direct major allocations, minus the doubly-counted promotions *)
    alloc_bytes = (minor + major - promoted) * word_bytes;
    minor_words = minor;
    minor_collections = g1.stat.Gc.minor_collections - g0.stat.Gc.minor_collections;
    major_collections = g1.stat.Gc.major_collections - g0.stat.Gc.major_collections;
  }

let span ?(args = []) name f =
  if not (hot ()) then f ()
  else begin
    let args =
      match current_tags () with [] -> args | tags -> args @ tags
    in
    let domain = self_id () in
    let t0 = now_ns () in
    emit (Span_begin { name; ts = t0; domain; args });
    let g0 = if Atomic.get gc_mode then Some (gc_sample ()) else None in
    Fun.protect f ~finally:(fun () ->
        (* Deltas are inclusive, like durations: a nested sampled span
           contributes its allocation to every enclosing span (and the
           gc.* counters accumulate per-span inclusive deltas). *)
        let gc =
          match g0 with
          | None -> None
          | Some s0 ->
            let d = gc_delta_of s0 (gc_sample ()) in
            Counter.add gc_minor_words d.minor_words;
            Counter.add gc_major_collections d.major_collections;
            Some d
        in
        let t1 = now_ns () in
        emit
          (Span_end
             {
               name;
               ts = t1;
               dur = t1 - t0;
               domain;
               args;
               gc;
               (* The counter sweep walks every (counter, domain) cell
                  under its mutex — cheap next to a streamed span, but
                  not something the always-on flight ring should pay on
                  every span close. The flight dump carries a Registry
                  snapshot taken at dump time instead. *)
               counters = (if on () then Counter.snapshot () else []);
             }))
  end

(* --- rendering helpers --- *)

let pretty_ns ns =
  let f = float_of_int ns in
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if ns < 1_000_000_000 then Printf.sprintf "%.1fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

let pretty_words w =
  let f = float_of_int w in
  if w < 1_000 then Printf.sprintf "%dw" w
  else if w < 1_000_000 then Printf.sprintf "%.1fkw" (f /. 1e3)
  else Printf.sprintf "%.1fMw" (f /. 1e6)

(* --- sinks --- *)

let stderr_sink () =
  let mu = Mutex.create () in
  let emit = function
    | Span_end { name; dur; domain; gc; _ } ->
      let mem =
        match gc with
        | None -> ""
        | Some g -> Printf.sprintf ", %s minor" (pretty_words g.minor_words)
      in
      Mutex.protect mu (fun () ->
          Printf.eprintf "[obs] %-32s %10s  (domain %d%s)\n%!" name (pretty_ns dur)
            domain mem)
    | Span_begin { name; domain; _ } ->
      if rank Debug <= Atomic.get current_level then
        Mutex.protect mu (fun () ->
            Printf.eprintf "[obs] %-32s %10s  (domain %d)\n%!" name "begin" domain)
    | Message _ -> () (* the logger already writes messages to stderr *)
  in
  { emit; close = (fun () -> flush stderr) }

let fields_to_json fields = Json.Obj (List.map (fun (k, v) -> (k, v)) fields)

let counters_to_json counters =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters)

let gc_to_json g =
  Json.Obj
    [
      ("alloc_bytes", Json.Int g.alloc_bytes);
      ("minor_words", Json.Int g.minor_words);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections);
    ]

let event_to_json = function
  | Span_begin { name; ts; domain; args } ->
    Json.Obj
      ([
         ("type", Json.String "span_begin");
         ("name", Json.String name);
         ("ts_ns", Json.Int ts);
         ("domain", Json.Int domain);
       ]
      @ if args = [] then [] else [ ("args", fields_to_json args) ])
  | Span_end { name; ts; dur; domain; args; gc; counters } ->
    Json.Obj
      ([
         ("type", Json.String "span_end");
         ("name", Json.String name);
         ("ts_ns", Json.Int ts);
         ("dur_ns", Json.Int dur);
         ("domain", Json.Int domain);
       ]
      @ (if args = [] then [] else [ ("args", fields_to_json args) ])
      @ (match gc with None -> [] | Some g -> [ ("gc", gc_to_json g) ])
      @ [ ("counters", counters_to_json counters) ])
  | Message { level; ts; domain; text } ->
    Json.Obj
      [
        ("type", Json.String "message");
        ("level", Json.String (level_name level));
        ("ts_ns", Json.Int ts);
        ("domain", Json.Int domain);
        ("text", Json.String text);
      ]

let null_sink () = { emit = (fun _ -> ()); close = (fun () -> ()) }

let jsonl_channel oc =
  let mu = Mutex.create () in
  {
    emit =
      (fun e ->
        let line = Json.to_string (event_to_json e) in
        Mutex.protect mu (fun () ->
            output_string oc line;
            output_char oc '\n'));
    close = (fun () -> close_out oc);
  }

let chrome_channel oc =
  let mu = Mutex.create () in
  let first = ref true in
  (* One lane per Domain: the first event seen from a domain emits the
     trace_event metadata ("M") records naming its lane and pinning its
     sort order, so Perfetto/chrome://tracing render a labeled track
     per domain instead of anonymous tid numbers. *)
  let seen_tids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let put_locked j =
    if !first then first := false else output_string oc ",\n";
    Json.output oc j
  in
  let meta ~name ~tid args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let put ~tid j =
    Mutex.protect mu (fun () ->
        if not (Hashtbl.mem seen_tids tid) then begin
          Hashtbl.add seen_tids tid ();
          put_locked
            (meta ~name:"thread_name" ~tid
               [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]);
          put_locked
            (meta ~name:"thread_sort_index" ~tid
               [ ("sort_index", Json.Int tid) ])
        end;
        put_locked j)
  in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Mutex.protect mu (fun () ->
      put_locked
        (Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int 0);
             ("args", Json.Obj [ ("name", Json.String "stabsim") ]);
           ]));
  let us ns = float_of_int ns /. 1e3 in
  let emit = function
    | Span_begin _ -> () (* complete events carry begin and end at once *)
    | Span_end { name; ts; dur; domain; args; gc; _ } ->
      let args =
        match gc with
        | None -> args
        | Some g ->
          args
          @ [
              ("gc.minor_words", Json.Int g.minor_words);
              ("gc.major_collections", Json.Int g.major_collections);
            ]
      in
      put ~tid:domain
        (Json.Obj
           ([
              ("name", Json.String name);
              ("ph", Json.String "X");
              ("pid", Json.Int 0);
              ("tid", Json.Int domain);
              ("ts", Json.Float (us (ts - dur)));
              ("dur", Json.Float (us dur));
            ]
           @ if args = [] then [] else [ ("args", fields_to_json args) ]))
    | Message { level; ts; domain; text } ->
      put ~tid:domain
        (Json.Obj
           [
             ("name", Json.String text);
             ("ph", Json.String "i");
             ("s", Json.String "t");
             ("pid", Json.Int 0);
             ("tid", Json.Int domain);
             ("ts", Json.Float (us ts));
             ("args", Json.Obj [ ("level", Json.String (level_name level)) ]);
           ])
  in
  {
    emit;
    close =
      (fun () ->
        output_string oc "\n]}\n";
        close_out oc);
  }

let memory_sink () =
  let mu = Mutex.create () in
  let acc = ref [] in
  ( {
      emit = (fun e -> Mutex.protect mu (fun () -> acc := e :: !acc));
      close = (fun () -> ());
    },
    fun () -> List.rev (Mutex.protect mu (fun () -> !acc)) )

(* --- per-phase profiling --- *)

module Profile = struct
  type cell = {
    mutable count : int;
    mutable total : int;
    mutable max : int;
    mutable minor_words : int;
    mutable major_collections : int;
  }

  type t = {
    mu : Mutex.t;
    tbl : (string, cell) Hashtbl.t;
    mutable t_first : int;
    mutable t_last : int;
  }

  let create () =
    { mu = Mutex.create (); tbl = Hashtbl.create 32; t_first = 0; t_last = 0 }

  let touch t ts =
    if t.t_first = 0 || ts < t.t_first then t.t_first <- ts;
    if ts > t.t_last then t.t_last <- ts

  let sink t =
    let emit = function
      | Span_begin { ts; _ } -> Mutex.protect t.mu (fun () -> touch t ts)
      | Span_end { name; ts; dur; gc; _ } ->
        Mutex.protect t.mu (fun () ->
            touch t ts;
            let cell =
              match Hashtbl.find_opt t.tbl name with
              | Some c -> c
              | None ->
                let c =
                  { count = 0; total = 0; max = 0; minor_words = 0;
                    major_collections = 0 }
                in
                Hashtbl.add t.tbl name c;
                c
            in
            cell.count <- cell.count + 1;
            cell.total <- cell.total + dur;
            if dur > cell.max then cell.max <- dur;
            match gc with
            | None -> ()
            | Some g ->
              cell.minor_words <- cell.minor_words + g.minor_words;
              cell.major_collections <- cell.major_collections + g.major_collections)
      | Message { ts; _ } -> Mutex.protect t.mu (fun () -> touch t ts)
    in
    { emit; close = (fun () -> ()) }

  type row = {
    name : string;
    count : int;
    total_ns : int;
    max_ns : int;
    minor_words : int;
    major_collections : int;
  }

  let rows t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold
          (fun name (c : cell) acc ->
            {
              name;
              count = c.count;
              total_ns = c.total;
              max_ns = c.max;
              minor_words = c.minor_words;
              major_collections = c.major_collections;
            }
            :: acc)
          t.tbl [])
    |> List.sort (fun a b ->
           match compare b.total_ns a.total_ns with
           | 0 -> compare a.name b.name
           | c -> c)

  let wall_ns t =
    Mutex.protect t.mu (fun () ->
        if t.t_first = 0 then 0 else t.t_last - t.t_first)
end
