(* Tests for the mixed-radix configuration encoding. *)

open Stabcore

(* The encoding of a protocol on a chain whose process [i] has domain
   [domains.(i)]. *)
let make_enc domains =
  Encoding.of_protocol
    {
      (Fixtures.ragged_domains ()) with
      Protocol.graph = Stabgraph.Graph.chain (Array.length domains);
      domain = Array.get domains;
    }

let test_count () =
  let enc = make_enc [| [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] |] in
  Alcotest.(check int) "2*3*4" 24 (Encoding.count enc);
  Alcotest.(check int) "processes" 3 (Encoding.processes enc)

let test_roundtrip_exhaustive () =
  let enc = make_enc [| [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] |] in
  for code = 0 to Encoding.count enc - 1 do
    let cfg = Encoding.decode enc code in
    Alcotest.(check int) "roundtrip" code (Encoding.encode enc cfg)
  done

let test_decode_distinct () =
  let enc = make_enc [| [ 0; 1 ]; [ 0; 1 ] |] in
  let seen = Hashtbl.create 4 in
  for code = 0 to 3 do
    Hashtbl.replace seen (Array.to_list (Encoding.decode enc code)) ()
  done;
  Alcotest.(check int) "all decodings distinct" 4 (Hashtbl.length seen)

let test_non_contiguous_domain_values () =
  (* Domain values need not be 0-based indexes. *)
  let enc = make_enc [| [ 10; 20 ]; [ 7; 8; 9 ] |] in
  Alcotest.(check int) "count" 6 (Encoding.count enc);
  let cfg = [| 20; 9 |] in
  Alcotest.(check (array int)) "roundtrip values" cfg
    (Encoding.decode enc (Encoding.encode enc cfg))

let test_encode_validation () =
  let enc = make_enc [| [ 0; 1 ] |] in
  Alcotest.check_raises "outside domain"
    (Invalid_argument "Encoding.encode: state outside domain") (fun () ->
      ignore (Encoding.encode enc [| 5 |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Encoding.encode: wrong configuration length") (fun () ->
      ignore (Encoding.encode enc [| 0; 0 |]))

let test_decode_validation () =
  let enc = make_enc [| [ 0; 1 ] |] in
  Alcotest.check_raises "negative" (Invalid_argument "Encoding.decode: code out of range")
    (fun () -> ignore (Encoding.decode enc (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Encoding.decode: code out of range")
    (fun () -> ignore (Encoding.decode enc 2))

let test_make_validation () =
  Alcotest.check_raises "empty domain" (Invalid_argument "Encoding.make: empty domain")
    (fun () -> ignore (make_enc [| [] |]));
  Alcotest.check_raises "duplicate value"
    (Invalid_argument "Encoding.make: duplicate domain value") (fun () ->
      ignore (make_enc [| [ 1; 1 ] |]))

let test_iter_visits_all_in_order () =
  let enc = make_enc [| [ 0; 1 ]; [ 0; 1; 2 ] |] in
  let visited = ref [] in
  Encoding.iter enc (fun code cfg -> visited := (code, Array.copy cfg) :: !visited);
  let visited = List.rev !visited in
  Alcotest.(check int) "visit count" 6 (List.length visited);
  List.iteri
    (fun i (code, cfg) ->
      Alcotest.(check int) "codes in order" i code;
      Alcotest.(check int) "consistent with decode" code (Encoding.encode enc cfg))
    visited

let test_of_protocol () =
  let p = Fixtures.ragged_domains () in
  let enc = Encoding.of_protocol p in
  Alcotest.(check int) "2*3*4" 24 (Encoding.count enc)

let qcheck_roundtrip =
  QCheck.Test.make ~count:200 ~name:"encode/decode roundtrip on random domains"
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (int_range 1 5)) (int_range 0 10_000))
    (fun (sizes, salt) ->
      let domains = Array.of_list (List.map (fun s -> List.init s Fun.id) sizes) in
      let enc = make_enc domains in
      let code = salt mod Encoding.count enc in
      Encoding.encode enc (Encoding.decode enc code) = code)

let suite =
  [
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "roundtrip exhaustive" `Quick test_roundtrip_exhaustive;
    Alcotest.test_case "decodings distinct" `Quick test_decode_distinct;
    Alcotest.test_case "non-contiguous values" `Quick test_non_contiguous_domain_values;
    Alcotest.test_case "encode validation" `Quick test_encode_validation;
    Alcotest.test_case "decode validation" `Quick test_decode_validation;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "iter order" `Quick test_iter_visits_all_in_order;
    Alcotest.test_case "of_protocol" `Quick test_of_protocol;
    Qcheck_seeded.to_alcotest qcheck_roundtrip;
  ]
