module Json = Stabobs.Json

type analysis = Stabcore.Analysis.question = Check | Markov | Montecarlo

type faults =
  | No_faults
  | Periodic of { gap : int; faults : int }
  | Bernoulli of { rate : float; faults : int }
  | Burst of { at : int list; faults : int }

type cell = {
  protocol : string;
  topology : string;
  transformed : bool;
  sched : Stabcore.Statespace.sched_class;
  analysis : analysis;
  faults : faults;
  runs : int;
  max_steps : int;
  max_configs : int;
}

type t = {
  name : string;
  seed : int;
  timeout_ms : int option;
  retries : int;
  backoff_ms : int;
  cells : cell list;
}

exception Parse of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let analysis_to_string = function
  | Check -> "check"
  | Markov -> "markov"
  | Montecarlo -> "montecarlo"

let analysis_of_string = function
  | "check" -> Check
  | "markov" -> Markov
  | "montecarlo" | "mc" -> Montecarlo
  | s -> fail "unknown analysis %S (expected check|markov|montecarlo)" s

let sched_to_string = function
  | Stabcore.Statespace.Central -> "central"
  | Stabcore.Statespace.Distributed -> "distributed"
  | Stabcore.Statespace.Synchronous -> "synchronous"

let sched_of_string = function
  | "central" -> Stabcore.Statespace.Central
  | "distributed" -> Stabcore.Statespace.Distributed
  | "synchronous" | "sync" -> Stabcore.Statespace.Synchronous
  | s -> fail "unknown sched %S (expected central|distributed|synchronous)" s

let faults_to_string = function
  | No_faults -> "none"
  | Periodic { gap; faults } -> Printf.sprintf "periodic:%d:%d" gap faults
  | Bernoulli { rate; faults } -> Printf.sprintf "bernoulli:%g:%d" rate faults
  | Burst { at; faults } ->
    Printf.sprintf "burst:%s:%d"
      (String.concat "+" (List.map string_of_int at))
      faults

let faults_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> No_faults
  | [ "periodic"; gap; k ] -> (
    match (int_of_string_opt gap, int_of_string_opt k) with
    | Some gap, Some k when gap > 0 && k > 0 -> Periodic { gap; faults = k }
    | _ -> fail "bad periodic fault plan %S (expected periodic:<gap>:<k>)" s)
  | [ "bernoulli"; rate; k ] -> (
    match (float_of_string_opt rate, int_of_string_opt k) with
    | Some rate, Some k when rate > 0.0 && rate < 1.0 && k > 0 ->
      Bernoulli { rate; faults = k }
    | _ -> fail "bad bernoulli fault plan %S (rate must be in (0, 1))" s)
  | [ "burst"; at; k ] -> (
    let steps = List.map int_of_string_opt (String.split_on_char '+' at) in
    match (int_of_string_opt k, List.mem None steps) with
    | Some k, false when k > 0 ->
      Burst { at = List.map Option.get steps; faults = k }
    | _ -> fail "bad burst fault plan %S (expected burst:<s1+s2+...>:<k>)" s)
  | _ -> fail "unknown fault plan %S" s

(* {1 JSON helpers} *)

let mem name j = Json.member name j

let str ~what = function
  | Json.String s -> s
  | j -> fail "%s: expected a string, got %s" what (Json.to_string j)

let int_ ~what = function
  | Json.Int i -> i
  | j -> fail "%s: expected an integer, got %s" what (Json.to_string j)

let bool_ ~what = function
  | Json.Bool b -> b
  | j -> fail "%s: expected a boolean, got %s" what (Json.to_string j)

let list_ ~what = function
  | Json.List l -> l
  | j -> fail "%s: expected a list, got %s" what (Json.to_string j)

let opt f ~what ~default j = match j with None -> default | Some j -> f ~what j

(* Load-time validation, cheap enough to build no protocol: a malformed
   field fails the load, naming the field, rather than every attempt. *)
let at_least bound ~what j =
  let n = int_ ~what j in
  if n < bound then fail "%s: expected an integer >= %d, got %d" what bound n else n

let protocol_name ~what j =
  let names = Stabexp.Registry.names and name = str ~what j in
  if not (List.mem name names) then
    fail "%s: unknown protocol %S (one of: %s)" what name (String.concat ", " names);
  name

let topology ~what j =
  let t = str ~what j in
  (try ignore (Stabexp.Registry.topology_of_string t)
   with Invalid_argument m | Failure m -> fail "%s: bad topology %S (%s)" what t m);
  t

(* {1 Canonical representation, hashing, seeding} *)

let cell_json c =
  Json.Obj
    [
      ("protocol", Json.String c.protocol);
      ("topology", Json.String c.topology);
      ("transformed", Json.Bool c.transformed);
      ("sched", Json.String (sched_to_string c.sched));
      ("analysis", Json.String (analysis_to_string c.analysis));
      ("faults", Json.String (faults_to_string c.faults));
      ("runs", Json.Int c.runs);
      ("max_steps", Json.Int c.max_steps);
      ("max_configs", Json.Int c.max_configs);
    ]

let cell_hash c = Digest.to_hex (Digest.string (Json.to_string (cell_json c)))

let cell_label c =
  Printf.sprintf "%s(%s)%s/%s/%s%s" c.protocol c.topology
    (if c.transformed then "+T" else "")
    (sched_to_string c.sched)
    (analysis_to_string c.analysis)
    (match c.faults with
    | No_faults -> ""
    | f -> "/" ^ faults_to_string f)

let cell_seed t c =
  (* Content-derived, order-independent: the first 48 bits of the hash
     mixed with the campaign seed. *)
  let bits = int_of_string ("0x" ^ String.sub (cell_hash c) 0 12) in
  t.seed lxor bits

(* {1 Parsing} *)

type defaults = { d_runs : int; d_max_steps : int; d_max_configs : int }

let cell_of_json defaults j =
  let get name = mem name j in
  let faults =
    faults_of_string (opt str ~what:"cell.faults" ~default:"none" (get "faults"))
  in
  let analysis =
    analysis_of_string
      (opt str ~what:"cell.analysis" ~default:"check" (get "analysis"))
  in
  if faults <> No_faults && analysis <> Montecarlo then
    fail "cell with faults %S needs analysis \"montecarlo\""
      (faults_to_string faults);
  {
    protocol =
      opt protocol_name ~what:"cell.protocol" ~default:"token-ring" (get "protocol");
    topology = opt topology ~what:"cell.topology" ~default:"ring:5" (get "topology");
    transformed =
      opt bool_ ~what:"cell.transformed" ~default:false (get "transformed");
    sched =
      sched_of_string (opt str ~what:"cell.sched" ~default:"central" (get "sched"));
    analysis;
    faults;
    runs = opt (at_least 1) ~what:"cell.runs" ~default:defaults.d_runs (get "runs");
    max_steps =
      opt (at_least 1) ~what:"cell.max_steps" ~default:defaults.d_max_steps
        (get "max_steps");
    max_configs =
      opt (at_least 1) ~what:"cell.max_configs" ~default:defaults.d_max_configs
        (get "max_configs");
  }

let axis matrix name ~default of_string to_value =
  match mem name matrix with
  | None -> List.map of_string default
  | Some l ->
    List.map (fun j -> of_string (to_value ~what:("matrix." ^ name) j))
      (list_ ~what:("matrix." ^ name) l)

let matrix_cells defaults matrix =
  let protocols = axis matrix "protocol" ~default:[ "token-ring" ] Fun.id protocol_name in
  let topologies = axis matrix "topology" ~default:[ "ring:5" ] Fun.id topology in
  let scheds = axis matrix "sched" ~default:[ "central" ] sched_of_string str in
  let analyses = axis matrix "analysis" ~default:[ "check" ] analysis_of_string str in
  let faultss = axis matrix "faults" ~default:[ "none" ] faults_of_string str in
  let transforms =
    match mem "transformed" matrix with
    | None -> [ false ]
    | Some l ->
      List.map (bool_ ~what:"matrix.transformed")
        (list_ ~what:"matrix.transformed" l)
  in
  (* Cross product in a fixed nesting order, so the cell sequence — and
     with it the report row order — is a function of the file alone.
     Fault plans only act during simulation: combinations pairing a
     real plan with a non-Monte-Carlo analysis are dropped, not
     generated, keeping matrix cell counts honest. *)
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun topology ->
          List.concat_map
            (fun sched ->
              List.concat_map
                (fun analysis ->
                  List.concat_map
                    (fun faults ->
                      List.filter_map
                        (fun transformed ->
                          if faults <> No_faults && analysis <> Montecarlo then
                            None
                          else
                            Some
                              {
                                protocol;
                                topology;
                                transformed;
                                sched;
                                analysis;
                                faults;
                                runs = defaults.d_runs;
                                max_steps = defaults.d_max_steps;
                                max_configs = defaults.d_max_configs;
                              })
                        transforms)
                    faultss)
                analyses)
            scheds)
        topologies)
    protocols

let of_json j =
  try
    let get name = mem name j in
    (match j with
    | Json.Obj _ -> ()
    | _ -> fail "campaign: expected a JSON object at top level");
    let defaults =
      {
        d_runs = opt (at_least 1) ~what:"runs" ~default:400 (get "runs");
        d_max_steps = opt (at_least 1) ~what:"max_steps" ~default:200_000 (get "max_steps");
        d_max_configs =
          opt (at_least 1) ~what:"max_configs" ~default:2_000_000 (get "max_configs");
      }
    in
    let from_matrix =
      match get "matrix" with
      | None -> []
      | Some m -> matrix_cells defaults m
    in
    let explicit =
      match get "cells" with
      | None -> []
      | Some l -> List.map (cell_of_json defaults) (list_ ~what:"cells" l)
    in
    let cells = from_matrix @ explicit in
    if cells = [] then fail "campaign declares no cells (no matrix, no cells)";
    Ok
      {
        name = opt str ~what:"name" ~default:"campaign" (get "name");
        seed = opt int_ ~what:"seed" ~default:42 (get "seed");
        timeout_ms = Option.map (at_least 0 ~what:"timeout_ms") (get "timeout_ms");
        retries = opt (at_least 0) ~what:"retries" ~default:2 (get "retries");
        backoff_ms = opt (at_least 0) ~what:"backoff_ms" ~default:100 (get "backoff_ms");
        cells;
      }
  with Parse m -> Error m

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
    match Json.of_string text with
    | Error m -> Error (Printf.sprintf "%s: %s" path m)
    | Ok j -> of_json j)
