module Obs = Stabobs.Obs
module Registry = Stabobs.Registry

let g_size = Registry.Gauge.make "pool.size"
let g_busy = Registry.Gauge.make "pool.busy"

(* --- grain estimator ------------------------------------------------ *)

(* Manticore's oracle-scheduler CED, reduced to its damped global
   constant: one ns-per-unit estimate per call site, updated from every
   executed chunk. Races between domains lose an update at worst — the
   estimate only steers chunk sizes, never results. *)
module Grain = struct
  type site = { name : string; mutable ns_per_unit : float }

  let alpha = 0.1
  let min_change = 0.05
  let max_change = 1.0
  let registry : site list ref = ref []
  let registry_mu = Mutex.create ()

  let site name =
    let s = { name; ns_per_unit = 0.0 } in
    Mutex.protect registry_mu (fun () -> registry := s :: !registry);
    s

  let anonymous () = { name = "<anonymous>"; ns_per_unit = 0.0 }
  let ns_per_unit s = s.ns_per_unit

  let measured s ~units ~ns =
    if units > 0 && ns > 0 then begin
      let c = float_of_int ns /. float_of_int units in
      let g = s.ns_per_unit in
      if g <= 0.0 then s.ns_per_unit <- c
      else begin
        let diff = c -. g in
        if Float.abs diff > g *. min_change then begin
          let diff =
            if Float.abs diff > g *. max_change then
              (if diff > 0.0 then 1.0 else -1.0) *. g *. max_change
            else diff
          in
          s.ns_per_unit <- g +. (alpha *. diff)
        end
      end
    end

  let snapshot () =
    Mutex.protect registry_mu (fun () ->
        List.filter_map
          (fun s ->
            if s.ns_per_unit > 0.0 then Some (s.name, s.ns_per_unit) else None)
          !registry)
    |> List.sort compare

  let reset_all () =
    Mutex.protect registry_mu (fun () ->
        List.iter (fun s -> s.ns_per_unit <- 0.0) !registry)
end

(* --- jobs and tasks ------------------------------------------------- *)

type job = {
  token : Cancel.t option; (* submitter's token, installed around tasks *)
  remaining : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  job_mu : Mutex.t; (* completion signal for the joiner *)
  job_cv : Condition.t;
}

type task = { job : job; run : unit -> unit }

(* --- per-domain deques ---------------------------------------------- *)

(* Owner pushes and pops at the bottom (LIFO), thieves take from the
   top (FIFO) — Manticore's work-stealing local deques. A mutex per
   deque instead of a lock-free protocol: chunks are grain-sized
   (~0.5 ms), so deque operations are orders of magnitude rarer than
   the work they schedule. Filtered removal (a joiner only takes its
   own job's tasks) leaves [None] holes that both ends skip over. *)
module Deque = struct
  type t = {
    mu : Mutex.t;
    mutable buf : task option array;
    mutable top : int; (* first live slot *)
    mutable bot : int; (* one past the last live slot *)
  }

  let create () = { mu = Mutex.create (); buf = Array.make 32 None; top = 0; bot = 0 }

  let push_bottom d t =
    Mutex.protect d.mu (fun () ->
        if d.bot = Array.length d.buf then
          if d.top > 0 then begin
            (* compact: slide the live window back to the origin *)
            let live = d.bot - d.top in
            Array.blit d.buf d.top d.buf 0 live;
            Array.fill d.buf live d.top None;
            d.top <- 0;
            d.bot <- live
          end
          else begin
            let grown = Array.make (2 * Array.length d.buf) None in
            Array.blit d.buf 0 grown 0 d.bot;
            d.buf <- grown
          end;
        d.buf.(d.bot) <- Some t;
        d.bot <- d.bot + 1)

  let trim d =
    while d.bot > d.top && d.buf.(d.bot - 1) = None do
      d.bot <- d.bot - 1
    done;
    while d.top < d.bot && d.buf.(d.top) = None do
      d.top <- d.top + 1
    done;
    if d.top = d.bot then begin
      d.top <- 0;
      d.bot <- 0
    end

  let take d ~from_top pred =
    Mutex.protect d.mu (fun () ->
        let found = ref None in
        let i = ref (if from_top then d.top else d.bot - 1) in
        let step = if from_top then 1 else -1 in
        while !found = None && !i >= d.top && !i < d.bot do
          (match d.buf.(!i) with
          | Some t when pred t ->
            d.buf.(!i) <- None;
            found := Some t
          | _ -> ());
          i := !i + step
        done;
        trim d;
        !found)

  let pop_bottom d pred = take d ~from_top:false pred
  let steal_top d pred = take d ~from_top:true pred
end

(* Every domain that participates registers its deque once; the
   registry only ever grows (helpers plus the handful of long-lived
   submitting domains), and thieves scan a racy snapshot of it. *)
let deques : Deque.t array Atomic.t = Atomic.make [||]
let deques_mu = Mutex.create ()

let register_deque d =
  Mutex.protect deques_mu (fun () ->
      let cur = Atomic.get deques in
      let grown = Array.make (Array.length cur + 1) d in
      Array.blit cur 0 grown 0 (Array.length cur);
      Atomic.set deques grown)

let dls_deque : Deque.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Helper lane index for busy-time attribution; -1 = not a helper. *)
let dls_lane : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let my_deque () =
  match Domain.DLS.get dls_deque with
  | Some d -> d
  | None ->
    let d = Deque.create () in
    register_deque d;
    Domain.DLS.set dls_deque (Some d);
    d

(* --- the pool ------------------------------------------------------- *)

type helper = { h_stop : bool Atomic.t; h_domain : unit Domain.t }

type t = {
  mu : Mutex.t; (* sleep/wake protocol and helper lifecycle *)
  cv : Condition.t;
  mutable signals : int; (* bumped on every push, under [mu] *)
  mutable target : int; (* configured width *)
  mutable helpers : helper list;
  mutable busy : int Atomic.t array; (* per-helper-lane cumulative ns *)
  caller_busy : int Atomic.t; (* non-helper (submitting) domains *)
}

let default_width () = max 1 (Domain.recommended_domain_count () - 1)

let pool =
  let w = default_width () in
  Registry.Gauge.set g_size w;
  {
    mu = Mutex.create ();
    cv = Condition.create ();
    signals = 0;
    target = w;
    helpers = [];
    busy = Array.init (max 0 (w - 1)) (fun _ -> Atomic.make 0);
    caller_busy = Atomic.make 0;
  }

let width () = pool.target
let helpers_alive () = Mutex.protect pool.mu (fun () -> List.length pool.helpers)

let busy_ns () =
  let lanes =
    Array.to_list
      (Array.mapi
         (fun i a -> (Printf.sprintf "pool-%d" (i + 1), Atomic.get a))
         pool.busy)
  in
  lanes @ [ ("caller", Atomic.get pool.caller_busy) ]

let reset_busy () =
  Array.iter (fun a -> Atomic.set a 0) pool.busy;
  Atomic.set pool.caller_busy 0

let wake_all () =
  Mutex.protect pool.mu (fun () ->
      pool.signals <- pool.signals + 1;
      Condition.broadcast pool.cv)

(* --- running tasks -------------------------------------------------- *)

let job_cancelled job = Atomic.get job.failed <> None

let finish_task job =
  if Atomic.fetch_and_add job.remaining (-1) = 1 then
    Mutex.protect job.job_mu (fun () -> Condition.broadcast job.job_cv)

let record_failure job e =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set job.failed None (Some (e, bt)))

let run_task task =
  let job = task.job in
  if not (job_cancelled job) then begin
    let lane = Domain.DLS.get dls_lane in
    let t0 = Obs.now_ns () in
    Registry.Gauge.add g_busy 1;
    (try
       match job.token with
       | Some tok -> Cancel.with_current tok task.run
       | None -> task.run ()
     with e -> record_failure job e);
    Registry.Gauge.add g_busy (-1);
    let dt = Obs.now_ns () - t0 in
    let cell =
      if lane >= 0 && lane < Array.length pool.busy then pool.busy.(lane)
      else pool.caller_busy
    in
    ignore (Atomic.fetch_and_add cell dt);
    Obs.Counter.incr Obs.pool_tasks
  end;
  finish_task job

let steal pred =
  let all = Atomic.get deques in
  let k = Array.length all in
  let mine = Domain.DLS.get dls_deque in
  let start = (Domain.self () :> int) mod max 1 k in
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < k do
    let d = all.((start + !i) mod k) in
    let is_mine = match mine with Some m -> m == d | None -> false in
    if not is_mine then found := Deque.steal_top d pred;
    incr i
  done;
  (match !found with
  | Some _ -> Obs.Counter.incr Obs.pool_steals
  | None -> ());
  !found

let any_task _ = true

(* --- helper domains ------------------------------------------------- *)

let helper_loop lane stop =
  Domain.DLS.set dls_lane lane;
  let d = my_deque () in
  let continue = ref true in
  while !continue do
    (* Snapshot the signal epoch before scanning: a push bumps
       [signals] under [pool.mu], so if one lands between a failed scan
       and the wait below, the epoch comparison fails and we rescan
       instead of sleeping through the wakeup. *)
    let seen = Mutex.protect pool.mu (fun () -> pool.signals) in
    match
      match Deque.pop_bottom d any_task with
      | Some t -> Some t
      | None -> steal any_task
    with
    | Some t -> run_task t
    | None ->
      if Atomic.get stop then continue := false
      else
        Mutex.protect pool.mu (fun () ->
            if (not (Atomic.get stop)) && pool.signals = seen then
              Condition.wait pool.cv pool.mu)
  done

let stop_helpers_locked () =
  List.iter (fun h -> Atomic.set h.h_stop true) pool.helpers;
  pool.signals <- pool.signals + 1;
  Condition.broadcast pool.cv;
  let old = pool.helpers in
  pool.helpers <- [];
  old

let spawn_helpers_locked () =
  if pool.helpers = [] && pool.target > 1 then begin
    if Array.length pool.busy < pool.target - 1 then
      pool.busy <-
        Array.init (pool.target - 1) (fun i ->
            if i < Array.length pool.busy then pool.busy.(i) else Atomic.make 0);
    pool.helpers <-
      List.init (pool.target - 1) (fun i ->
          let stop = Atomic.make false in
          { h_stop = stop; h_domain = Domain.spawn (fun () -> helper_loop i stop) })
  end

let ensure_helpers () = Mutex.protect pool.mu spawn_helpers_locked

let set_width w =
  let w = max 1 w in
  if w <> pool.target then begin
    let old = Mutex.protect pool.mu (fun () ->
        pool.target <- w;
        stop_helpers_locked ())
    in
    List.iter (fun h -> Domain.join h.h_domain) old;
    Registry.Gauge.set g_size w
  end

(* --- jobs ----------------------------------------------------------- *)

let make_job () =
  {
    token = Cancel.current ();
    remaining = Atomic.make 0;
    failed = Atomic.make None;
    job_mu = Mutex.create ();
    job_cv = Condition.create ();
  }

let spawn_task job run =
  Atomic.incr job.remaining;
  Deque.push_bottom (my_deque ()) { job; run };
  wake_all ()

(* Join: help with this job's own tasks (and only those — helping an
   unrelated long task here would block the join behind it), then wait
   for in-flight tasks on other domains. *)
let join job =
  let d = my_deque () in
  let mine t = t.job == job in
  while Atomic.get job.remaining > 0 do
    match
      match Deque.pop_bottom d mine with Some t -> Some t | None -> steal mine
    with
    | Some t -> run_task t
    | None ->
      Mutex.protect job.job_mu (fun () ->
          if Atomic.get job.remaining > 0 then Condition.wait job.job_cv job.job_mu)
  done;
  match Atomic.get job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* --- parallel_for --------------------------------------------------- *)

let default_grain_ns = 500_000

let parallel_for ?site ?(grain_ns = default_grain_ns) ?(min_chunk = 1) n body =
  if n > 0 then begin
    let site = match site with Some s -> s | None -> Grain.anonymous () in
    if width () <= 1 then begin
      let t0 = Obs.now_ns () in
      body ~lo:0 ~hi:n;
      Grain.measured site ~units:n ~ns:(Obs.now_ns () - t0)
    end
    else begin
      ensure_helpers ();
      let min_chunk = max 1 min_chunk in
      (* Coarse opening shares until the first measurement lands. *)
      let probe = max min_chunk ((n + (2 * width ()) - 1) / (2 * width ())) in
      let job = make_job () in
      let rec range lo hi () =
        let lo = ref lo and hi = ref hi in
        let should_split () =
          let size = !hi - !lo in
          size > min_chunk
          &&
          let c = Grain.ns_per_unit site in
          if c > 0.0 then float_of_int size *. c > float_of_int grain_ns
          else size > probe
        in
        while should_split () do
          let mid = !lo + ((!hi - !lo + 1) / 2) in
          spawn_task job (range mid !hi);
          Obs.Counter.incr Obs.pool_splits;
          hi := mid
        done;
        let size = !hi - !lo in
        let t0 = Obs.now_ns () in
        body ~lo:!lo ~hi:!hi;
        Grain.measured site ~units:size ~ns:(Obs.now_ns () - t0)
      in
      spawn_task job (range 0 n);
      join job
    end
  end

let map_ranges ?site ?grain_ns ?min_chunk n body =
  let parts = Atomic.make [] in
  parallel_for ?site ?grain_ns ?min_chunk n (fun ~lo ~hi ->
      let part = (lo, body ~lo ~hi) in
      let rec add () =
        let seen = Atomic.get parts in
        if not (Atomic.compare_and_set parts seen (part :: seen)) then add ()
      in
      add ());
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (Atomic.get parts) |> List.map snd

let scatter k f =
  if k > 0 then
    if width () <= 1 then
      for i = 0 to k - 1 do
        f i
      done
    else begin
      ensure_helpers ();
      let job = make_job () in
      for i = 0 to k - 1 do
        spawn_task job (fun () -> f i)
      done;
      join job
    end

(* Flight-dump section: the pool state a post-mortem wants — target
   width, helpers actually alive, per-lane busy nanoseconds and the
   learned grain estimates. Registered once at module init; the
   provider only runs when a dump is written. *)
let () =
  Stabobs.Flight.add_section "pool" (fun () ->
      let module Json = Stabobs.Json in
      Json.Obj
        [
          ("width", Json.Int (width ()));
          ("helpers_alive", Json.Int (helpers_alive ()));
          ( "busy_ns",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (busy_ns ())) );
          ( "grain_ns_per_unit",
            Json.Obj
              (List.map (fun (k, v) -> (k, Json.Float v)) (Grain.snapshot ()))
          );
        ])
