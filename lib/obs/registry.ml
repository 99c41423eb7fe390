(* Gauges and labels are multi-writer (unlike counter cells), but
   writes are rare — once per campaign cell, not per transition — so a
   single Atomic.t per metric is both torn-proof and uncontended. The
   dark-path guard is the same one counters use. *)

module Gauge = struct
  type t = { gname : string; cell : int Atomic.t }

  let registry_mu = Mutex.create ()
  let registry : t list ref = ref []

  let make gname =
    let t = { gname; cell = Atomic.make 0 } in
    Mutex.protect registry_mu (fun () -> registry := t :: !registry);
    t

  let set t v = if Obs.hot () then Atomic.set t.cell v
  let add t k = if k <> 0 && Obs.hot () then ignore (Atomic.fetch_and_add t.cell k)
  let all () = List.rev (Mutex.protect registry_mu (fun () -> !registry))
  let snapshot () = List.map (fun t -> (t.gname, Atomic.get t.cell)) (all ())
end

module Label = struct
  type t = { lname : string; cell : string option Atomic.t }

  let registry_mu = Mutex.create ()
  let registry : t list ref = ref []

  let make lname =
    let t = { lname; cell = Atomic.make None } in
    Mutex.protect registry_mu (fun () -> registry := t :: !registry);
    t

  let set t v = if Obs.hot () then Atomic.set t.cell (Some v)
  let all () = List.rev (Mutex.protect registry_mu (fun () -> !registry))

  let snapshot () =
    List.filter_map
      (fun t -> Option.map (fun v -> (t.lname, v)) (Atomic.get t.cell))
      (all ())
end

type snapshot = {
  ts_ns : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  labels : (string * string) list;
  dists : (string * Dist.summary) list;
}

let snapshot () =
  {
    ts_ns = Obs.now_ns ();
    counters = Obs.Counter.snapshot ();
    gauges = Gauge.snapshot ();
    labels = Label.snapshot ();
    dists = Dist.snapshot ();
  }

let summary_json (s : Dist.summary) =
  Json.Obj
    [
      ("count", Json.Int s.Dist.count);
      ("mean", Json.Float s.Dist.mean);
      ("stddev", Json.Float s.Dist.stddev);
      ("min", Json.Float s.Dist.min);
      ("max", Json.Float s.Dist.max);
      ("p50", Json.Float s.Dist.p50);
      ("p95", Json.Float s.Dist.p95);
      ("p99", Json.Float s.Dist.p99);
    ]

let snapshot_json s =
  Json.Obj
    [
      ("ts_ns", Json.Int s.ts_ns);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.gauges));
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels));
      ("dists", Json.Obj (List.map (fun (k, v) -> (k, summary_json v)) s.dists));
    ]
