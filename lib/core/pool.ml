module Obs = Stabobs.Obs
module Registry = Stabobs.Registry

let g_size = Registry.Gauge.make "pool.size"
let g_busy = Registry.Gauge.make "pool.busy"

(* --- jobs ----------------------------------------------------------- *)

(* One job is [n] indices handed out [chunk] at a time: whoever takes
   part claims the next chunk with one fetch-and-add on [next], so
   there is no per-domain queue to steal from and nothing to split. *)
type job = {
  n : int;
  chunk : int;
  body : lo:int -> hi:int -> unit;
  next : int Atomic.t; (* first unclaimed index *)
  finished : int Atomic.t; (* indices run or skipped *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  token : Cancel.t option; (* submitter's token, installed around chunks *)
  owner : Domain.id; (* submitting domain, for [pool.steals] *)
  job_mu : Mutex.t; (* completion signal for the joiner *)
  job_cv : Condition.t;
}

(* --- the pool ------------------------------------------------------- *)

type helper = { h_stop : bool Atomic.t; h_domain : unit Domain.t }

type t = {
  mu : Mutex.t; (* open jobs, sleep/wake protocol and helper lifecycle *)
  cv : Condition.t;
  mutable jobs : job list; (* open jobs, newest first *)
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
    jobs = [];
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

(* Helper lane index for busy-time attribution; -1 = not a helper. *)
let dls_lane : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

(* --- running chunks ------------------------------------------------- *)

let run_chunk job lo hi =
  let lane = Domain.DLS.get dls_lane in
  let t0 = Obs.now_ns () in
  Registry.Gauge.add g_busy 1;
  (try
     match job.token with
     | Some tok -> Cancel.with_current tok (fun () -> job.body ~lo ~hi)
     | None -> job.body ~lo ~hi
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set job.failed None (Some (e, bt))));
  Registry.Gauge.add g_busy (-1);
  let cell =
    if lane >= 0 && lane < Array.length pool.busy then pool.busy.(lane)
    else pool.caller_busy
  in
  ignore (Atomic.fetch_and_add cell (Obs.now_ns () - t0));
  Obs.Counter.incr Obs.pool_tasks;
  if Domain.self () <> job.owner then Obs.Counter.incr Obs.pool_steals

(* Claim and run chunks until the cursor passes [n]. A chunk claimed
   after the job failed is skipped but still counted as finished, so
   the joiner's wait always ends. *)
let rec drain job =
  let lo = Atomic.fetch_and_add job.next job.chunk in
  if lo < job.n then begin
    let hi = min job.n (lo + job.chunk) in
    if Option.is_none (Atomic.get job.failed) then run_chunk job lo hi;
    if Atomic.fetch_and_add job.finished (hi - lo) + (hi - lo) = job.n then
      Mutex.protect job.job_mu (fun () -> Condition.broadcast job.job_cv);
    drain job
  end

(* --- helper domains ------------------------------------------------- *)

let rec open_job = function
  | [] -> None
  | j :: rest -> if Atomic.get j.next < j.n then Some j else open_job rest

(* Helpers take part in any open job; the list is only read under
   [pool.mu], and a submission broadcasts on [pool.cv] under it, so a
   helper that found nothing cannot sleep through a new job. *)
let helper_loop lane stop =
  Domain.DLS.set dls_lane lane;
  let rec pick () =
    if Atomic.get stop then None
    else
      match open_job pool.jobs with
      | Some j -> Some j
      | None ->
        Condition.wait pool.cv pool.mu;
        pick ()
  in
  let rec loop () =
    match Mutex.protect pool.mu pick with
    | None -> ()
    | Some j ->
      drain j;
      loop ()
  in
  loop ()

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

let set_width w =
  let w = max 1 w in
  if w <> pool.target then begin
    let old =
      Mutex.protect pool.mu (fun () ->
          pool.target <- w;
          List.iter (fun h -> Atomic.set h.h_stop true) pool.helpers;
          Condition.broadcast pool.cv;
          let old = pool.helpers in
          pool.helpers <- [];
          old)
    in
    List.iter (fun h -> Domain.join h.h_domain) old;
    Registry.Gauge.set g_size w
  end

(* --- submission ----------------------------------------------------- *)

(* Publish the job, then join it: claim only this job's chunks (running
   an unrelated open job here would block the join behind it), then
   wait for the chunks other domains still have in flight. *)
let run_job ~chunk n body =
  let job =
    {
      n;
      chunk;
      body;
      next = Atomic.make 0;
      finished = Atomic.make 0;
      failed = Atomic.make None;
      token = Cancel.current ();
      owner = Domain.self ();
      job_mu = Mutex.create ();
      job_cv = Condition.create ();
    }
  in
  Obs.Counter.add Obs.pool_splits (((n + chunk - 1) / chunk) - 1);
  Mutex.protect pool.mu (fun () ->
      spawn_helpers_locked ();
      pool.jobs <- job :: pool.jobs;
      Condition.broadcast pool.cv);
  drain job;
  Mutex.protect pool.mu (fun () -> pool.jobs <- List.filter (fun j -> j != job) pool.jobs);
  Mutex.protect job.job_mu (fun () ->
      while Atomic.get job.finished < n do
        Condition.wait job.job_cv job.job_mu
      done);
  match Atomic.get job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* About [shares] chunks per participating domain: enough that a domain
   finishing early finds work left, few enough that claims stay rare. *)
let shares = 8

let chunk_size ~min_chunk n =
  let per = shares * width () in
  max (max 1 min_chunk) ((n + per - 1) / per)

let parallel_for ?(min_chunk = 1) n body =
  if n > 0 then
    if width () <= 1 then body ~lo:0 ~hi:n
    else run_job ~chunk:(chunk_size ~min_chunk n) n body

let map_ranges ?(min_chunk = 1) n body =
  if n <= 0 then []
  else if width () <= 1 then [ body ~lo:0 ~hi:n ]
  else begin
    let chunk = chunk_size ~min_chunk n in
    let slots = Array.make ((n + chunk - 1) / chunk) None in
    run_job ~chunk n (fun ~lo ~hi -> slots.(lo / chunk) <- Some (body ~lo ~hi));
    List.map Option.get (Array.to_list slots)
  end

let scatter k f =
  if k > 0 then
    if width () <= 1 then
      for i = 0 to k - 1 do
        f i
      done
    else run_job ~chunk:1 k (fun ~lo ~hi:_ -> f lo)

(* Flight-dump section: the pool state a post-mortem wants — target
   width, helpers actually alive and per-lane busy nanoseconds.
   Registered once at module init; the provider only runs when a dump
   is written. *)
let () =
  Stabobs.Flight.add_section "pool" (fun () ->
      let module Json = Stabobs.Json in
      Json.Obj
        [
          ("width", Json.Int (width ()));
          ("helpers_alive", Json.Int (helpers_alive ()));
          ( "busy_ns",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (busy_ns ())) );
        ])
