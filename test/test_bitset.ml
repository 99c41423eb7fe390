open Stabcore

let test_set_mem_clear () =
  let s = Bitset.create 70 in
  Alcotest.(check bool) "fresh is empty" true (Bitset.is_empty s);
  Bitset.set s 0;
  Bitset.set s 7;
  Bitset.set s 8;
  Bitset.set s 69;
  Alcotest.(check (list int)) "elements" [ 0; 7; 8; 69 ] (Bitset.elements s);
  Alcotest.(check bool) "not empty" false (Bitset.is_empty s);
  Bitset.clear s 8;
  Alcotest.(check bool) "cleared" false (Bitset.mem s 8);
  Alcotest.(check bool) "neighbor bit survives clear" true (Bitset.mem s 7);
  Alcotest.(check (list int)) "elements after clear" [ 0; 7; 69 ] (Bitset.elements s)

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
  Alcotest.(check (array bool)) "roundtrip" a (Array.init 53 (Bitset.mem s));
  Alcotest.(check int) "elements match the set entries"
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a)
    (List.length (Bitset.elements s))

let test_iter_fold_ascending () =
  let s = Bitset.create 40 in
  List.iter (Bitset.set s) [ 31; 2; 17; 39; 2 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 2; 17; 31; 39 ] (List.rev !seen);
  Alcotest.(check int) "fold sums" (2 + 17 + 31 + 39) (Bitset.fold ( + ) s 0)

let test_complement_copy () =
  let s = Bitset.create 10 in
  List.iter (Bitset.set s) [ 1; 4; 9 ];
  let d = Bitset.copy s in
  Bitset.clear d 4;
  Alcotest.(check bool) "copy is independent" true (Bitset.mem s 4)

let test_empty_length () =
  let s = Bitset.create 0 in
  Alcotest.(check int) "zero length" 0 (Bitset.length s);
  Alcotest.(check (list int)) "no elements" [] (Bitset.elements s);
  Alcotest.(check bool) "empty" true (Bitset.is_empty s)

let suite =
  [
    Alcotest.test_case "set/mem/clear" `Quick test_set_mem_clear;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "bool array roundtrip" `Quick test_bool_array_roundtrip;
    Alcotest.test_case "iter/fold ascending" `Quick test_iter_fold_ascending;
    Alcotest.test_case "complement and copy" `Quick test_complement_copy;
    Alcotest.test_case "empty set" `Quick test_empty_length;
  ]
