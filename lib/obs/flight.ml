(* Flight recorder: per-Domain ring buffers retaining the last N
   events, dumped as a self-contained JSONL artifact when a run dies.

   Same cell discipline as Obs.Counter: one ring per (recorder,
   domain), created through DLS on the domain's first recorded event
   and registered in a global list so a dump can merge rings from
   every domain that ever recorded — including domains that have since
   terminated. Each ring has a single writer (its domain); the dump
   reads cursors and slots racily, which can at worst return a
   neighboring generation of an already-complete event. Disabled cost
   is one atomic load and a branch per call site, with no allocation
   (test_obs.ml "disabled path allocates nothing"). *)

type cell = {
  c_domain : int;
  buf : Obs.event option array;
  cursor : int Atomic.t;  (* total events ever written by this domain *)
}

let default_capacity = 512
let capacity = Atomic.make default_capacity

let cells_mu = Mutex.create ()
let cells : cell list ref = ref []

let key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let cell =
        {
          c_domain = Obs.self_id ();
          buf = Array.make (max 16 (Atomic.get capacity)) None;
          cursor = Atomic.make 0;
        }
      in
      Mutex.protect cells_mu (fun () -> cells := cell :: !cells);
      cell)

let record e =
  let c = Domain.DLS.get key in
  let i = Atomic.get c.cursor in
  c.buf.(i mod Array.length c.buf) <- Some e;
  Atomic.set c.cursor (i + 1)

let enabled = Obs.flight_on

let enable ?capacity:cap () =
  (match cap with
  | Some n when n > 0 -> Atomic.set capacity n
  | _ -> ());
  Obs.set_flight_hook (Some record)


(* Breadcrumbs: ring-only messages that bypass the log level and the
   sinks — the places that matter in a post-mortem (cancellation
   latches, demote/quarantine decisions) drop one regardless of
   verbosity, and the live JSONL/Chrome streams stay unpolluted. *)
let note ?(level = Obs.Info) text =
  if enabled () then
    record
      (Obs.Message
         { level; ts = Obs.now_ns (); domain = Obs.self_id (); text })

let notef ?level fmt = Format.kasprintf (fun s -> note ?level s) fmt

let event_ts = function
  | Obs.Span_begin { ts; _ } | Obs.Span_end { ts; _ } | Obs.Message { ts; _ }
    -> ts

let events () =
  let all = Mutex.protect cells_mu (fun () -> !cells) in
  List.concat_map
    (fun c ->
      let n = Array.length c.buf in
      let cur = Atomic.get c.cursor in
      let lo = max 0 (cur - n) in
      List.filter_map
        (fun k -> c.buf.((lo + k) mod n))
        (List.init (cur - lo) Fun.id))
    all
  |> List.stable_sort (fun a b -> compare (event_ts a) (event_ts b))

(* --- dump sections --- *)

(* Subsystems above this library (pool, campaign runner) register a
   provider once at module init; every dump calls each provider and
   embeds the result as a {"type":"section","name":...,"data":...}
   line. A provider that raises is reported in place rather than
   aborting the dump. *)
let sections_mu = Mutex.create ()
let sections : (string * (unit -> Json.t)) list ref = ref []

let add_section name f =
  Mutex.protect sections_mu (fun () ->
      sections := (name, f) :: List.remove_assoc name !sections)

(* --- provenance meta, bench-style --- *)

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> Some (String.trim l)
    | _ -> None
  with _ -> None

let git_commit () =
  match command_line "git rev-parse --short HEAD 2>/dev/null" with
  | Some c when c <> "" -> c
  | _ -> "unknown"

let git_dirty () =
  match command_line "git status --porcelain 2>/dev/null | head -1" with
  | Some "" -> false
  | Some _ -> true
  | None -> false

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("minor_words", Json.Float s.Gc.minor_words);
      ("major_words", Json.Float s.Gc.major_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("heap_words", Json.Int s.Gc.heap_words);
      ("compactions", Json.Int s.Gc.compactions);
    ]

let schema_version = 1

let header ~reason =
  Json.Obj
    [
      ("type", Json.String "flight");
      ("schema", Json.Int schema_version);
      ("reason", Json.String reason);
      ("ts_ns", Json.Int (Obs.now_ns ()));
      ("pid", Json.Int (Unix.getpid ()));
      ( "cmdline",
        Json.List
          (Array.to_list (Array.map (fun a -> Json.String a) Sys.argv)) );
      ("ocaml", Json.String Sys.ocaml_version);
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("commit", Json.String (git_commit ()));
      ("dirty", Json.Bool (git_dirty ()));
      ("gc", gc_json ());
    ]

let dump_lines ~reason =
  let section (name, f) =
    let data =
      try f ()
      with exn -> Json.Obj [ ("error", Json.String (Printexc.to_string exn)) ]
    in
    Json.Obj
      [
        ("type", Json.String "section");
        ("name", Json.String name);
        ("data", data);
      ]
  in
  let registered = Mutex.protect sections_mu (fun () -> List.rev !sections) in
  (header ~reason :: List.map section registered)
  @ [
      Json.Obj
        [
          ("type", Json.String "registry");
          ("data", Registry.snapshot_json (Registry.snapshot ()));
        ];
    ]
  @ List.map Obs.event_to_json (events ())

let dump_string ~reason =
  let b = Buffer.create 4096 in
  List.iter
    (fun j ->
      Buffer.add_string b (Json.to_string j);
      Buffer.add_char b '\n')
    (dump_lines ~reason);
  Buffer.contents b

(* Atomic replace: a dump refreshed while the process can still be
   SIGKILLed (the campaign runner rewrites one per checkpoint append)
   must never be observable half-written, so write a sibling temp file
   and rename it into place. Temp names carry a sequence number so
   concurrent dumps to the same path (two workers settling cells at
   once) each write their own file; the last rename wins with a
   complete artifact either way. *)
let dump_seq = Atomic.make 0

let dump_to ~reason path =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Atomic.fetch_and_add dump_seq 1) in
  let oc = open_out tmp in
  Fun.protect
    (fun () -> output_string oc (dump_string ~reason))
    ~finally:(fun () -> close_out oc);
  Sys.rename tmp path

(* --- crash-exit plumbing --- *)

(* Fatal paths (signal handlers, the uncaught-exception hook) latch a
   reason here; the at_exit hook installed by [set_exit_dump] writes a
   dump iff a reason is pending, so clean exits leave no artifact. *)
let pending : string option Atomic.t = Atomic.make None

let set_pending reason = Atomic.set pending (Some reason)
let take_pending () = Atomic.exchange pending None

let exit_dump_installed = Atomic.make false
let exit_dump_path = Atomic.make (None : string option)

let write_exit_dump () =
  match (take_pending (), Atomic.get exit_dump_path) with
  | Some reason, Some path -> (
    try
      dump_to ~reason path;
      Printf.eprintf "flight dump written to %s (reason: %s)\n%!" path reason
    with _ -> ())
  | _ -> ()

let set_exit_dump path =
  Atomic.set exit_dump_path (Some path);
  if not (Atomic.exchange exit_dump_installed true) then
    at_exit write_exit_dump

let dump_pending = write_exit_dump

(* test hook: drop every ring and recorded breadcrumb. Only the cells
   list is cleared — rings of live domains are re-created (and
   re-registered) on their next record. *)
let reset_for_tests () =
  Obs.set_flight_hook None;
  Mutex.protect cells_mu (fun () ->
      List.iter
        (fun c ->
          Atomic.set c.cursor 0;
          Array.fill c.buf 0 (Array.length c.buf) None)
        !cells)
