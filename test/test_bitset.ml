open Stabcore

(* The set indices of [s], ascending, read through [mem]. *)
let members n s = List.filter (Bitset.mem s) (List.init n Fun.id)

let test_set_mem_clear () =
  let s = Bitset.create 70 in
  Alcotest.(check (list int)) "fresh is empty" [] (members 70 s);
  Bitset.set s 0;
  Bitset.set s 7;
  Bitset.set s 8;
  Bitset.set s 69;
  Alcotest.(check (list int)) "members" [ 0; 7; 8; 69 ] (members 70 s);
  Bitset.clear s 8;
  Alcotest.(check bool) "cleared" false (Bitset.mem s 8);
  Alcotest.(check bool) "neighbor bit survives clear" true (Bitset.mem s 7);
  Alcotest.(check (list int)) "members after clear" [ 0; 7; 69 ] (members 70 s)

let test_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset.mem: index -1 out of bounds [0,8)")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "index = length" (Invalid_argument "Bitset.set: index 8 out of bounds [0,8)")
    (fun () -> Bitset.set s 8)

let test_bool_array_roundtrip () =
  let a = Array.init 53 (fun i -> i mod 3 = 0 || i mod 7 = 1) in
  let s = Bitset.create 53 in
  Array.iteri (fun i b -> if b then Bitset.set s i) a;
  Alcotest.(check (array bool)) "roundtrip" a (Array.init 53 (Bitset.mem s))

let test_empty_length () =
  let s = Bitset.create 0 in
  Alcotest.check_raises "no index" (Invalid_argument "Bitset.mem: index 0 out of bounds [0,0)")
    (fun () -> ignore (Bitset.mem s 0))

let suite =
  [
    Alcotest.test_case "set/mem/clear" `Quick test_set_mem_clear;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "bool array roundtrip" `Quick test_bool_array_roundtrip;
    Alcotest.test_case "empty set" `Quick test_empty_length;
  ]
