module Json = Stabobs.Json
module Stats = Stabstats.Stats

type entry = {
  mean_ns : float;
  stddev_ns : float;
  ci95_ns : float;
  p50_ns : float;
  p99_ns : float;
  samples : int;
  minor_words_per_run : float;
  major_per_run : float;
}

type doc = {
  schema : int;
  commit : string;
  dirty : bool;
  cores : int option;
  entries : (string * entry) list;
}

(* --- parsing --- *)

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let field_num j name = Option.bind (Json.member name j) num
let field_or default j name = Option.value ~default (field_num j name)

let entry_of_json j =
  match Json.member "ns" j with
  | Some ns ->
    (* schema 3: full distribution + memory block *)
    Option.map
      (fun mean_ns ->
        let mem = Option.value ~default:(Json.Obj []) (Json.member "mem" j) in
        {
          mean_ns;
          stddev_ns = field_or 0.0 ns "stddev";
          ci95_ns = field_or 0.0 ns "ci95";
          p50_ns = field_or mean_ns ns "p50";
          p99_ns = field_or mean_ns ns "p99";
          samples = int_of_float (field_or 1.0 ns "samples");
          minor_words_per_run = field_or 0.0 mem "minor_words_per_run";
          major_per_run = field_or 0.0 mem "major_per_run";
        })
      (field_num ns "mean")
  | None ->
    (* schemas 1/2: a bare OLS point estimate *)
    Option.map
      (fun mean_ns ->
        {
          mean_ns;
          stddev_ns = 0.0;
          ci95_ns = 0.0;
          p50_ns = mean_ns;
          p99_ns = mean_ns;
          samples = 1;
          minor_words_per_run = 0.0;
          major_per_run = 0.0;
        })
      (field_num j "ns_per_run")

let of_json j =
  match Json.member "artifacts" j with
  | Some (Json.Obj artifacts) ->
    let schema =
      match Json.member "schema" j with Some (Json.Int s) -> s | _ -> 1
    in
    let meta = Option.value ~default:(Json.Obj []) (Json.member "meta" j) in
    let commit =
      match Json.member "commit" meta with
      | Some (Json.String s) -> s
      | _ -> "unknown"
    in
    let dirty =
      match Json.member "dirty" meta with Some (Json.Bool b) -> b | _ -> false
    in
    let cores =
      match Json.member "cores" meta with Some (Json.Int n) -> Some n | _ -> None
    in
    let entries =
      List.filter_map
        (fun (name, j) -> Option.map (fun e -> (name, e)) (entry_of_json j))
        artifacts
    in
    Ok { schema; commit; dirty; cores; entries }
  | _ -> Error "bench record: no \"artifacts\" object"

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
    match Json.of_string raw with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok doc -> Ok doc))

(* --- comparison --- *)

type status = Regression | Slower | Faster | Unchanged | Added | Removed

type delta = {
  name : string;
  base : entry option;
  cand : entry option;
  pct : float option;
  noise_pct : float option;
  significant : bool;
  status : status;
}

(* Nanosecond-scale entries (the dark-path probes) drift by 1-2 ns
   between processes — code layout, frequency state — which is 30%+ in
   relative terms while meaning nothing. The absolute floor keeps such
   drift out of the gate; a real dark-path regression (say, an
   accidental allocation) costs tens of ns and sails over it. *)
let default_noise_floor_ns = 5.0

let compare_entries ~gate_pct ~noise_floor_ns name (b : entry) (c : entry) =
  let diff = c.mean_ns -. b.mean_ns in
  let pooled =
    Float.max (Stats.pooled_halfwidth b.ci95_ns c.ci95_ns) noise_floor_ns
  in
  let significant =
    Stats.means_differ ~mean_a:b.mean_ns ~half_a:pooled ~mean_b:c.mean_ns
      ~half_b:0.0
  in
  let pct = if b.mean_ns > 0.0 then Some (100.0 *. diff /. b.mean_ns) else None in
  let noise_pct =
    if b.mean_ns > 0.0 then Some (100.0 *. pooled /. b.mean_ns) else None
  in
  let status =
    if not significant then Unchanged
    else if diff > 0.0 then
      match pct with
      | Some p when p >= gate_pct -> Regression
      | _ -> Slower
    else Faster
  in
  { name; base = Some b; cand = Some c; pct; noise_pct; significant; status }

(* A NaN tolerance fails every [p >= gate_pct] test and an infinite one
   is never reached, so either would switch the gate off silently. *)
let check_gate_pct fn gate_pct =
  if not (Float.is_finite gate_pct && gate_pct >= 0.0) then
    invalid_arg
      (Printf.sprintf "Benchcmp.%s: gate_pct must be a non-negative finite number, got %g" fn
         gate_pct)

let compare_docs ?(noise_floor_ns = default_noise_floor_ns) ~gate_pct ~baseline
    ~candidate () =
  check_gate_pct "compare_docs" gate_pct;
  let in_base =
    List.map
      (fun (name, b) ->
        match List.assoc_opt name candidate.entries with
        | Some c -> compare_entries ~gate_pct ~noise_floor_ns name b c
        | None ->
          { name; base = Some b; cand = None; pct = None; noise_pct = None;
            significant = false; status = Removed })
      baseline.entries
  in
  let added =
    List.filter_map
      (fun (name, c) ->
        if List.mem_assoc name baseline.entries then None
        else
          Some
            { name; base = None; cand = Some c; pct = None; noise_pct = None;
              significant = false; status = Added })
      candidate.entries
  in
  in_base @ added

let gate_failures deltas = List.filter (fun d -> d.status = Regression) deltas

(* --- rendering --- *)

let verdict_cell = function
  | Regression -> "REGRESSION"
  | Slower -> "slower"
  | Faster -> "faster"
  | Unchanged -> "~"
  | Added -> "new"
  | Removed -> "removed"

let ns_cell = function
  | None -> "-"
  | Some (e : entry) -> Stabobs.Obs.pretty_ns (int_of_float e.mean_ns)

let pct_cell = function None -> "-" | Some p -> Printf.sprintf "%+.1f%%" p
let noise_cell = function None -> "-" | Some p -> Printf.sprintf "±%.1f%%" p

let mem_pct d =
  match (d.base, d.cand) with
  | Some b, Some c when b.minor_words_per_run > 0.0 ->
    Some
      (100.0
      *. (c.minor_words_per_run -. b.minor_words_per_run)
      /. b.minor_words_per_run)
  | _ -> None

let report deltas =
  let t =
    Report.create ~title:"bench compare: candidate vs baseline"
      ~columns:[ "artifact"; "base"; "cand"; "Δ%"; "noise"; "mem Δ%"; "verdict" ]
  in
  List.iter
    (fun d ->
      Report.add_row t
        [
          d.name;
          ns_cell d.base;
          ns_cell d.cand;
          pct_cell d.pct;
          noise_cell d.noise_pct;
          pct_cell (mem_pct d);
          verdict_cell d.status;
        ])
    deltas;
  t

let count status deltas = List.length (List.filter (fun d -> d.status = status) deltas)

(* Parallel entries (the expand-ws family) scale with the machine,
   so a
   baseline recorded on a different core count is comparing apples to
   oranges for them — PR 9's expand-ws-4d was recorded on a 1-core
   container and only prose explained it. Surface the mismatch at
   every compare instead. *)
let cores_mismatch ~baseline ~candidate =
  match (baseline.cores, candidate.cores) with
  | Some b, Some c when b <> c ->
    Some
      (Printf.sprintf
         "baseline was recorded on %d core(s) but this machine has %d: \
          parallel entries (expand-ws-*) are not comparable at face value"
         b c)
  | _ -> None

let markdown ~gate_pct ~baseline ~candidate deltas =
  check_gate_pct "markdown" gate_pct;
  let dirty d = if d then " (dirty)" else "" in
  let cores_note =
    match cores_mismatch ~baseline ~candidate with
    | Some w -> Printf.sprintf "\n\n**Warning:** %s." w
    | None -> ""
  in
  let header =
    Printf.sprintf
      "Baseline `%s`%s (schema %d) vs candidate `%s`%s (schema %d); gate: mean \
       slowdown ≥ %.0f%% beyond the pooled ci95 noise band."
      baseline.commit (dirty baseline.dirty) baseline.schema candidate.commit
      (dirty candidate.dirty) candidate.schema gate_pct
    ^ cores_note
  in
  let failures = gate_failures deltas in
  let summary =
    if failures = [] then
      Printf.sprintf
        "**Gate: PASS** — %d unchanged, %d faster, %d slower (inside tolerance), %d \
         new, %d removed."
        (count Unchanged deltas) (count Faster deltas) (count Slower deltas)
        (count Added deltas) (count Removed deltas)
    else
      Printf.sprintf "**Gate: FAIL** — significant regressions: %s."
        (String.concat ", "
           (List.map (fun d -> Printf.sprintf "`%s`" d.name) failures))
  in
  String.concat "\n" [ header; ""; Report.to_markdown (report deltas); ""; summary; "" ]
