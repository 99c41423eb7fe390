(* Tests for the bench-record comparison and the statistical perf
   gate: schema parsing (v3 and the legacy v2 point records), the
   significance rule (pooled ci95 band), and the gate policy that an
   injected 2x slowdown fails while same-noise re-runs pass. *)

module Benchcmp = Stabexp.Benchcmp
module Json = Stabobs.Json

(* A schema-3 document built programmatically: [entries] is
   (name, mean_ns, ci95_ns). *)
let v3_doc ?(commit = "abc1234") ?(dirty = false) entries =
  let artifact (_, mean, ci95) =
    Json.Obj
      [
        ( "ns",
          Json.Obj
            [
              ("mean", Json.Float mean);
              ("stddev", Json.Float (ci95 /. 2.0));
              ("ci95", Json.Float ci95);
              ("p50", Json.Float mean);
              ("p99", Json.Float (mean *. 1.1));
              ("samples", Json.Int 20);
              ("runs", Json.Int 2000);
            ] );
        ( "mem",
          Json.Obj
            [
              ("minor_words_per_run", Json.Float 100.0);
              ("major_per_run", Json.Float 0.5);
            ] );
      ]
  in
  Json.Obj
    [
      ("schema", Json.Int 3);
      ( "meta",
        Json.Obj [ ("commit", Json.String commit); ("dirty", Json.Bool dirty) ] );
      ( "artifacts",
        Json.Obj (List.map (fun ((n, _, _) as e) -> (n, artifact e)) entries) );
    ]

let parse j =
  match Benchcmp.of_json j with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "of_json: %s" e

let test_parse_v3 () =
  let doc = parse (v3_doc ~commit:"deadbee" ~dirty:true [ ("a", 100.0, 5.0) ]) in
  Alcotest.(check int) "schema" 3 doc.Benchcmp.schema;
  Alcotest.(check string) "commit" "deadbee" doc.Benchcmp.commit;
  Alcotest.(check bool) "dirty" true doc.Benchcmp.dirty;
  match doc.Benchcmp.entries with
  | [ (name, e) ] ->
    Alcotest.(check string) "name" "a" name;
    Alcotest.(check (float 1e-9)) "mean" 100.0 e.Benchcmp.mean_ns;
    Alcotest.(check (float 1e-9)) "ci95" 5.0 e.Benchcmp.ci95_ns;
    Alcotest.(check int) "samples" 20 e.Benchcmp.samples;
    Alcotest.(check (float 1e-9)) "mem" 100.0 e.Benchcmp.minor_words_per_run
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let test_parse_legacy_v2 () =
  (* The committed schema-2 shape: bare ns_per_run point estimates,
     null timings dropped, no dirty flag. *)
  let j =
    Json.Obj
      [
        ("schema", Json.Int 2);
        ("meta", Json.Obj [ ("commit", Json.String "4edd42d") ]);
        ( "artifacts",
          Json.Obj
            [
              ("repro/x", Json.Obj [ ("ns_per_run", Json.Float 1234.5) ]);
              ("repro/broken", Json.Obj [ ("ns_per_run", Json.Null) ]);
            ] );
      ]
  in
  let doc = parse j in
  Alcotest.(check int) "schema" 2 doc.Benchcmp.schema;
  Alcotest.(check bool) "legacy dirty defaults false" false doc.Benchcmp.dirty;
  match doc.Benchcmp.entries with
  | [ (name, e) ] ->
    Alcotest.(check string) "null-timing entry dropped" "repro/x" name;
    Alcotest.(check (float 1e-9)) "mean from point estimate" 1234.5 e.Benchcmp.mean_ns;
    Alcotest.(check (float 1e-9)) "legacy ci95 is zero" 0.0 e.Benchcmp.ci95_ns
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let statuses ?noise_floor_ns ~gate_pct baseline candidate =
  Benchcmp.compare_docs ?noise_floor_ns ~gate_pct ~baseline:(parse baseline)
    ~candidate:(parse candidate) ()
  |> List.map (fun d -> (d.Benchcmp.name, d.Benchcmp.status))

let test_identical_docs_pass () =
  let doc = v3_doc [ ("a", 100.0, 5.0); ("b", 2000.0, 40.0) ] in
  let deltas =
    Benchcmp.compare_docs ~gate_pct:20.0 ~baseline:(parse doc)
      ~candidate:(parse doc) ()
  in
  Alcotest.(check int) "no gate failures" 0
    (List.length (Benchcmp.gate_failures deltas));
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d.Benchcmp.name ^ " unchanged") true
        (d.Benchcmp.status = Benchcmp.Unchanged))
    deltas

let test_injected_slowdown_gates () =
  (* A 2x slowdown with tight noise bands must come back Regression;
     the untouched entry stays Unchanged. *)
  let baseline = v3_doc [ ("hot", 100.0, 3.0); ("cold", 500.0, 10.0) ] in
  let candidate = v3_doc [ ("hot", 200.0, 3.0); ("cold", 500.0, 10.0) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "2x slowdown is a regression" true
    (List.assoc "hot" s = Benchcmp.Regression);
  Alcotest.(check bool) "untouched entry unchanged" true
    (List.assoc "cold" s = Benchcmp.Unchanged);
  let deltas =
    Benchcmp.compare_docs ~gate_pct:20.0 ~baseline:(parse baseline)
      ~candidate:(parse candidate) ()
  in
  match Benchcmp.gate_failures deltas with
  | [ d ] ->
    Alcotest.(check string) "the failure names the entry" "hot" d.Benchcmp.name;
    (match d.Benchcmp.pct with
    | Some p -> Alcotest.(check (float 1e-6)) "delta is +100%" 100.0 p
    | None -> Alcotest.fail "regression carries a percentage")
  | fs -> Alcotest.failf "expected exactly one gate failure, got %d" (List.length fs)

let test_noise_inside_band_passes () =
  (* +30% on the mean, but the pooled ci95 band is wider than the
     shift: statistically indistinguishable, so never a regression
     even though 30 > gate_pct. *)
  let baseline = v3_doc [ ("noisy", 100.0, 40.0) ] in
  let candidate = v3_doc [ ("noisy", 130.0, 40.0) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "inside the noise band: unchanged" true
    (List.assoc "noisy" s = Benchcmp.Unchanged)

let test_significant_but_small_does_not_gate () =
  (* +10% beyond a tight band is significant, but under the 20%
     tolerance: reported as Slower, not gated. *)
  let baseline = v3_doc [ ("drift", 100.0, 2.0) ] in
  let candidate = v3_doc [ ("drift", 110.0, 2.0) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "slower but inside tolerance" true
    (List.assoc "drift" s = Benchcmp.Slower);
  (* The same shift gates when the tolerance is tighter than the
     drift. *)
  let s = statuses ~gate_pct:5.0 baseline candidate in
  Alcotest.(check bool) "gates under a 5% tolerance" true
    (List.assoc "drift" s = Benchcmp.Regression)

let test_absolute_noise_floor () =
  (* The dark-path probes sit at a handful of ns; 1-2 ns of
     between-process drift is 30%+ in relative terms yet means
     nothing. The absolute floor keeps it out of the gate even with
     implausibly tight ci95 bands... *)
  let baseline = v3_doc [ ("dark", 3.5, 0.1) ] in
  let candidate = v3_doc [ ("dark", 5.0, 0.1) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "+43% of 3.5ns is below the floor: unchanged" true
    (List.assoc "dark" s = Benchcmp.Unchanged);
  (* ... while a real dark-path regression (an accidental allocation
     costs tens of ns) clears it easily. *)
  let slow = v3_doc [ ("dark", 50.0, 0.1) ] in
  let s = statuses ~gate_pct:20.0 baseline slow in
  Alcotest.(check bool) "3.5ns -> 50ns still gates" true
    (List.assoc "dark" s = Benchcmp.Regression);
  (* The floor is a parameter: with it off, the tight bands make the
     small drift significant again. *)
  let s = statuses ~noise_floor_ns:0.0 ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "floor disabled: drift gates" true
    (List.assoc "dark" s = Benchcmp.Regression)

let test_speedup_and_membership () =
  let baseline = v3_doc [ ("fast", 100.0, 2.0); ("gone", 50.0, 1.0) ] in
  let candidate = v3_doc [ ("fast", 50.0, 2.0); ("fresh", 70.0, 1.0) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "halved mean is faster" true
    (List.assoc "fast" s = Benchcmp.Faster);
  Alcotest.(check bool) "baseline-only entry is removed" true
    (List.assoc "gone" s = Benchcmp.Removed);
  Alcotest.(check bool) "candidate-only entry is added" true
    (List.assoc "fresh" s = Benchcmp.Added);
  Alcotest.(check int) "none of that gates" 0
    (List.length
       (Benchcmp.gate_failures
          (Benchcmp.compare_docs ~gate_pct:20.0 ~baseline:(parse baseline)
             ~candidate:(parse candidate) ())))

let test_legacy_baseline_degenerates_to_point_compare () =
  (* Gating a v3 candidate against a v2 baseline: both half-widths on
     the legacy side are 0, so significance degenerates to any
     difference beyond the candidate's own band. *)
  let baseline =
    Json.Obj
      [
        ("schema", Json.Int 2);
        ("meta", Json.Obj []);
        ( "artifacts",
          Json.Obj [ ("x", Json.Obj [ ("ns_per_run", Json.Float 100.0) ]) ] );
      ]
  in
  let candidate = v3_doc [ ("x", 300.0, 5.0) ] in
  let s = statuses ~gate_pct:20.0 baseline candidate in
  Alcotest.(check bool) "3x vs a legacy point estimate gates" true
    (List.assoc "x" s = Benchcmp.Regression)

let test_markdown_rendering () =
  let baseline = parse (v3_doc ~commit:"aaaaaaa" [ ("hot", 100.0, 3.0) ]) in
  let candidate =
    parse (v3_doc ~commit:"bbbbbbb" ~dirty:true [ ("hot", 200.0, 3.0) ])
  in
  let deltas = Benchcmp.compare_docs ~gate_pct:20.0 ~baseline ~candidate () in
  let md = Benchcmp.markdown ~gate_pct:20.0 ~baseline ~candidate deltas in
  let contains needle =
    let n = String.length needle and m = String.length md in
    let rec go i = i + n <= m && (String.sub md i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names both commits" true
    (contains "`aaaaaaa`" && contains "`bbbbbbb`");
  Alcotest.(check bool) "dirty candidate flagged" true (contains "(dirty)");
  Alcotest.(check bool) "verdict summary present" true (contains "**Gate: FAIL**");
  Alcotest.(check bool) "table row present" true (contains "| hot |");
  let passing =
    Benchcmp.markdown ~gate_pct:20.0 ~baseline ~candidate:baseline
      (Benchcmp.compare_docs ~gate_pct:20.0 ~baseline ~candidate:baseline ())
  in
  let contains_pass =
    let needle = "**Gate: PASS**" in
    let n = String.length needle and m = String.length passing in
    let rec go i = i + n <= m && (String.sub passing i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "identical docs render a pass" true contains_pass

(* NaN fails every [>=] test and infinity is never reached, so either
   tolerance would pass a 3x slowdown; both are refused instead, as is
   a negative one. *)
let test_rejects_non_finite_gate () =
  let baseline = parse (v3_doc [ ("hot", 100.0, 3.0) ]) in
  let candidate = parse (v3_doc [ ("hot", 300.0, 3.0) ]) in
  List.iter
    (fun gate_pct ->
      let rejected f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "gate_pct %g was accepted" gate_pct
      in
      rejected (fun () -> ignore (Benchcmp.compare_docs ~gate_pct ~baseline ~candidate ()));
      rejected (fun () -> ignore (Benchcmp.markdown ~gate_pct ~baseline ~candidate [])))
    [ Float.nan; Float.infinity; -1.0 ];
  Alcotest.(check int) "a finite tolerance still gates the slowdown" 1
    (List.length
       (Benchcmp.gate_failures (Benchcmp.compare_docs ~gate_pct:20.0 ~baseline ~candidate ())))

let test_load_missing_file () =
  match Benchcmp.load "/nonexistent/bench.json" with
  | Ok _ -> Alcotest.fail "loading a missing file must error"
  | Error e ->
    Alcotest.(check bool) "error mentions the path" true
      (String.length e > 0
      && String.sub e 0 (min 12 (String.length e)) = "/nonexistent")

let suite =
  [
    Alcotest.test_case "parses schema 3" `Quick test_parse_v3;
    Alcotest.test_case "parses legacy schema 2" `Quick test_parse_legacy_v2;
    Alcotest.test_case "identical docs pass the gate" `Quick test_identical_docs_pass;
    Alcotest.test_case "injected 2x slowdown gates" `Quick test_injected_slowdown_gates;
    Alcotest.test_case "noise inside ci95 band passes" `Quick
      test_noise_inside_band_passes;
    Alcotest.test_case "significant small drift does not gate" `Quick
      test_significant_but_small_does_not_gate;
    Alcotest.test_case "absolute ns noise floor" `Quick test_absolute_noise_floor;
    Alcotest.test_case "speedups, added and removed entries" `Quick
      test_speedup_and_membership;
    Alcotest.test_case "legacy baseline point compare" `Quick
      test_legacy_baseline_degenerates_to_point_compare;
    Alcotest.test_case "markdown rendering" `Quick test_markdown_rendering;
    Alcotest.test_case "missing baseline errors" `Quick test_load_missing_file;
    Alcotest.test_case "rejects a non-finite gate" `Quick test_rejects_non_finite_gate;
  ]
