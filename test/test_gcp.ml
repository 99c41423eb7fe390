(* Tests for the GCP language: lexing, parsing, type checking,
   evaluation semantics, and cross-validation of the shipped example
   programs against the hand-coded algorithms. *)

open Stabcore

let ok_exn = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

(* [Gcp.load] of a file holding [source]. *)
let parse source =
  let path = Filename.temp_file "stabsim-gcp" ".gcp" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc source);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Stabgcp.Gcp.load path)

let parse_err source =
  match parse source with
  | Ok _ -> Alcotest.fail "expected a parse/type error"
  | Error m -> m

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let mis_source =
  {|protocol mis
var inS : bool
action enter   :: !inS && forall q (!q.inS) -> inS := true
action retreat :: inS  && exists q (q.inS)  -> inS := false
legitimate terminal|}

(* --- parsing --- *)

let test_parse_minimal () =
  let p = ok_exn (parse mis_source) in
  Alcotest.(check string) "name" "mis" (Stabgcp.Gcp.name p)

let test_comments_and_whitespace () =
  let source =
    "# leading comment\nprotocol demo // trailing comment\nvar x : 0 .. 3\n\
     action up :: x < 3 -> x := x + 1\nlegitimate all x == 3"
  in
  let p = ok_exn (parse source) in
  Alcotest.(check string) "name" "demo" (Stabgcp.Gcp.name p)

let test_parse_error_reports_position () =
  let m = parse_err "protocol p\nvar x : bool\naction a :: x ->" in
  Alcotest.(check bool) "mentions line" true (contains ~needle:"3:" m)

let test_parse_requires_sections () =
  Alcotest.(check bool) "needs vars" true
    (contains ~needle:"var" (parse_err "protocol p\naction a :: true -> x := 1\nlegitimate terminal"));
  Alcotest.(check bool) "needs actions" true
    (contains ~needle:"action" (parse_err "protocol p\nvar x : bool\nlegitimate terminal"))

let test_parse_rejects_trailing () =
  Alcotest.(check bool) "trailing" true
    (contains ~needle:"trailing"
       (parse_err (mis_source ^ "\nvar late : bool")))

(* --- type checking --- *)

let test_type_errors () =
  let check_msg source needle =
    Alcotest.(check bool) (needle ^ " reported") true (contains ~needle (parse_err source))
  in
  check_msg "protocol p\nvar x : bool\naction a :: x + 1 == 2 -> x := true\nlegitimate terminal"
    "type";
  check_msg "protocol p\nvar x : bool\naction a :: y -> x := true\nlegitimate terminal"
    "unknown variable";
  check_msg
    "protocol p\nvar x : bool\naction a :: x -> x := false; x := true\nlegitimate terminal"
    "twice";
  check_msg "protocol p\nvar x : bool\nvar x : bool\naction a :: x -> x := false\nlegitimate terminal"
    "declared twice";
  check_msg "protocol p\nvar x : bool\naction a :: q.x -> x := false\nlegitimate terminal"
    "binder";
  check_msg "protocol p\nvar x : 0 .. x\naction a :: true -> x := 0\nlegitimate terminal"
    "domain bounds"

let test_guard_must_be_bool () =
  Alcotest.(check bool) "int guard rejected" true
    (contains ~needle:"bool"
       (parse_err "protocol p\nvar x : 0 .. 3\naction a :: x -> x := 0\nlegitimate terminal"))

(* --- instantiation and semantics --- *)

let test_mis_matches_native_everywhere () =
  let program = ok_exn (parse mis_source) in
  List.iter
    (fun g ->
      let dsl, dsl_spec = ok_exn (Stabgcp.Gcp.instantiate program g) in
      let native = Stabalgo.Mis.make g in
      let enc = Encoding.of_protocol native in
      Encoding.iter enc (fun _ cfg ->
          let dsl_cfg = Array.map (fun b -> [| Bool.to_int b |]) cfg in
          let e1 = Protocol.enabled_processes native cfg in
          let e2 = Protocol.enabled_processes dsl dsl_cfg in
          if e1 <> e2 then Alcotest.fail "enabled sets differ";
          Alcotest.(check bool) "specs agree"
            ((Stabalgo.Mis.spec g).Spec.legitimate cfg)
            (dsl_spec.Spec.legitimate dsl_cfg);
          List.iter
            (fun p ->
              match
                (Protocol.step_outcomes native cfg [ p ],
                 Protocol.step_outcomes dsl dsl_cfg [ p ])
              with
              | [ (n1, _) ], [ (n2, _) ] ->
                let n2' = Array.map (fun s -> s.(0) = 1) n2 in
                if n1 <> n2' then Alcotest.fail "successors differ"
              | _ -> Alcotest.fail "determinism expected")
            e1))
    [ Stabgraph.Graph.ring 4; Stabgraph.Graph.chain 5; Stabgraph.Graph.star 4 ]

let test_degree_dependent_domain () =
  let source =
    "protocol deg\nvar p : 0 .. degree - 1\naction a :: p > 0 -> p := 0\nlegitimate terminal"
  in
  let program = ok_exn (parse source) in
  let g = Stabgraph.Graph.star 4 in
  let protocol, _ = ok_exn (Stabgcp.Gcp.instantiate program g) in
  Alcotest.(check int) "center domain" 3 (List.length (protocol.Protocol.domain 0));
  Alcotest.(check int) "leaf domain" 1 (List.length (protocol.Protocol.domain 1))

let test_empty_domain_rejected () =
  (* 1 .. degree - 1 is empty at leaves. *)
  let source =
    "protocol bad\nvar p : 1 .. degree - 1\naction a :: p > 1 -> p := 1\nlegitimate terminal"
  in
  let program = ok_exn (parse source) in
  match Stabgcp.Gcp.instantiate program (Stabgraph.Graph.star 3) with
  | Ok _ -> Alcotest.fail "empty domain must be rejected"
  | Error m -> Alcotest.(check bool) "message" true (contains ~needle:"empty domain" m)

let test_first_and_minmax () =
  (* smallest free color and max aggregate, on a concrete config. *)
  let source =
    "protocol t\nvar c : 0 .. 3\n\
     action a :: exists q (q.c == c) -> c := first v in 0 .. 3 with forall q (q.c != v)\n\
     legitimate all forall q (q.c != c)"
  in
  let program = ok_exn (parse source) in
  let g = Stabgraph.Graph.star 4 in
  let protocol, _ = ok_exn (Stabgcp.Gcp.instantiate program g) in
  (* center 0 conflicts; neighbors hold 0,1,2 -> first free is 3. *)
  let cfg = [| [| 0 |]; [| 0 |]; [| 1 |]; [| 2 |] |] in
  match Protocol.step_outcomes protocol cfg [ 0 ] with
  | [ (next, _) ] -> Alcotest.(check int) "picks 3" 3 next.(0).(0)
  | _ -> Alcotest.fail "deterministic step expected"

let test_max_aggregate () =
  let source =
    "protocol m\nvar v : 0 .. 9\naction a :: max q (q.v) > v -> v := max q (q.v)\n\
     legitimate all forall q (q.v <= v)"
  in
  let program = ok_exn (parse source) in
  let g = Stabgraph.Graph.chain 3 in
  let protocol, spec = ok_exn (Stabgcp.Gcp.instantiate program g) in
  let cfg = [| [| 1 |]; [| 5 |]; [| 2 |] |] in
  (match Protocol.step_outcomes protocol cfg [ 0 ] with
  | [ (next, _) ] -> Alcotest.(check int) "adopts 5" 5 next.(0).(0)
  | _ -> Alcotest.fail "deterministic");
  Alcotest.(check bool) "uniform is legitimate" true
    (spec.Spec.legitimate [| [| 5 |]; [| 5 |]; [| 5 |] |])

let test_is_me () =
  (* A pointer protocol: p is "happy" iff its pointed neighbor points
     back. Flip guard uses is me. *)
  let source =
    "protocol ptr\nvar p : 0 .. degree - 1\n\
     action grab :: !(exists q (q.p is me)) -> p := (p + 1) % degree\n\
     legitimate terminal"
  in
  let program = ok_exn (parse source) in
  let g = Stabgraph.Graph.chain 2 in
  let protocol, _ = ok_exn (Stabgcp.Gcp.instantiate program g) in
  (* Both point at each other (only possible value 0): nobody enabled. *)
  Alcotest.(check bool) "mutual pointing terminal" true
    (Protocol.is_terminal protocol [| [| 0 |]; [| 0 |] |])

let test_runtime_errors_positioned () =
  let source =
    "protocol r\nvar x : 0 .. 3\naction a :: x < 3 -> x := first v in 0 .. 3 with v > 5\n\
     legitimate terminal"
  in
  let program = ok_exn (parse source) in
  let protocol, _ = ok_exn (Stabgcp.Gcp.instantiate program (Stabgraph.Graph.chain 2)) in
  (try
     ignore (Protocol.step_outcomes protocol [| [| 0 |]; [| 0 |] |] [ 0 ]);
     Alcotest.fail "expected a runtime failure"
   with Failure m ->
     Alcotest.(check bool) "position in message" true (contains ~needle:"gcp:3" m))

let test_assignment_outside_domain_rejected () =
  let source =
    "protocol r\nvar x : 0 .. 3\naction a :: x == 0 -> x := 7\nlegitimate terminal"
  in
  let program = ok_exn (parse source) in
  let protocol, _ = ok_exn (Stabgcp.Gcp.instantiate program (Stabgraph.Graph.chain 2)) in
  try
    ignore (Protocol.step_outcomes protocol [| [| 0 |]; [| 0 |] |] [ 0 ]);
    Alcotest.fail "expected a domain failure"
  with Failure m -> Alcotest.(check bool) "message" true (contains ~needle:"outside" m)

(* --- the shipped example programs --- *)

let load_example file = ok_exn (Stabgcp.Gcp.load ("../examples/gcp/" ^ file))

let test_shipped_examples_verdicts () =
  let check file g expected_central_self expected_distributed_self =
    let program = load_example file in
    let protocol, spec = ok_exn (Stabgcp.Gcp.instantiate program g) in
    let space = Statespace.build protocol in
    let vc = Checker.analyze space Statespace.Central spec in
    let vd = Checker.analyze space Statespace.Distributed spec in
    Alcotest.(check bool) (file ^ " central self") expected_central_self
      (Checker.self_stabilizing vc);
    Alcotest.(check bool) (file ^ " distributed self") expected_distributed_self
      (Checker.self_stabilizing vd);
    Alcotest.(check bool) (file ^ " distributed weak") true (Checker.weak_stabilizing vd)
  in
  check "mis.gcp" (Stabgraph.Graph.ring 4) true false;
  check "coloring.gcp" (Stabgraph.Graph.ring 4) true false;
  check "rendezvous.gcp" (Stabgraph.Graph.chain 2) false false;
  check "max.gcp" (Stabgraph.Graph.chain 3) true true

let test_shipped_rendezvous_matches_algorithm3 () =
  let program = load_example "rendezvous.gcp" in
  let g = Stabgraph.Graph.chain 2 in
  let dsl, _ = ok_exn (Stabgcp.Gcp.instantiate program g) in
  let native = Stabalgo.Two_bool.make () in
  let enc = Encoding.of_protocol native in
  Encoding.iter enc (fun _ cfg ->
      let dsl_cfg = Array.map (fun b -> [| Bool.to_int b |]) cfg in
      if
        Protocol.enabled_processes native cfg
        <> Protocol.enabled_processes dsl dsl_cfg
      then Alcotest.fail "enabled sets differ from Algorithm 3")

let test_transformed_gcp_protocol () =
  (* The paper's pipeline applies to DSL protocols too. *)
  let program = load_example "rendezvous.gcp" in
  let dsl, spec = ok_exn (Stabgcp.Gcp.instantiate program (Stabgraph.Graph.chain 2)) in
  let tp = Transformer.randomize dsl in
  let tspec = Transformer.lift_spec spec in
  let space = Statespace.build tp in
  let legitimate = Statespace.legitimate_set space tspec in
  Alcotest.(check bool) "prob-1 under sync" true
    (Result.is_ok
       (Markov.converges_with_prob_one (Markov.of_space space Markov.Sync) ~legitimate))

let test_load_missing_file () =
  match Stabgcp.Gcp.load "no/such/file.gcp" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "comments/whitespace" `Quick test_comments_and_whitespace;
    Alcotest.test_case "errors carry positions" `Quick test_parse_error_reports_position;
    Alcotest.test_case "required sections" `Quick test_parse_requires_sections;
    Alcotest.test_case "trailing input" `Quick test_parse_rejects_trailing;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "guards are boolean" `Quick test_guard_must_be_bool;
    Alcotest.test_case "mis matches native" `Quick test_mis_matches_native_everywhere;
    Alcotest.test_case "degree-dependent domains" `Quick test_degree_dependent_domain;
    Alcotest.test_case "empty domain rejected" `Quick test_empty_domain_rejected;
    Alcotest.test_case "first + quantifiers" `Quick test_first_and_minmax;
    Alcotest.test_case "max aggregate" `Quick test_max_aggregate;
    Alcotest.test_case "is me" `Quick test_is_me;
    Alcotest.test_case "runtime errors positioned" `Quick test_runtime_errors_positioned;
    Alcotest.test_case "domain enforcement" `Quick test_assignment_outside_domain_rejected;
    Alcotest.test_case "shipped examples verdicts" `Quick test_shipped_examples_verdicts;
    Alcotest.test_case "rendezvous = Algorithm 3" `Quick test_shipped_rendezvous_matches_algorithm3;
    Alcotest.test_case "transformer on DSL protocols" `Quick test_transformed_gcp_protocol;
    Alcotest.test_case "missing file" `Quick test_load_missing_file;
  ]
