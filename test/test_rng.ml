(* Unit and property tests for the splittable PRNG. *)

open Stabrng

let test_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done

(* Known answers: the first eight [float], [int 1000] and [bool] draws
   of seed 42, of a child split off it and of a copy taken after two
   draws, each kind from a fresh generator. Every seeded output of the
   repository rests on this stream, so a change to the generator's
   representation must leave these values exactly as they are. *)
let known_answers name fresh ~floats ~ints ~bools =
  let take f = let g = fresh () in List.init 8 (fun _ -> f g) in
  Alcotest.(check (list (float 0.0))) (name ^ " floats") floats (take Rng.float);
  Alcotest.(check (list int)) (name ^ " ints") ints (take (fun g -> Rng.int g 1000));
  Alcotest.(check (list bool)) (name ^ " bools") bools (take Rng.bool)

let test_known_answers () =
  known_answers "create 42"
    (fun () -> Rng.create 42)
    ~floats:
      [ 0x1.a0ec9a9e88ecdp-1; 0x1.467905d15dbccp-2; 0x1.f7c0f9f61849dp-1; 0x1.66fb3ec019b06p-1;
        0x1.96463870e908dp-1; 0x1.2d1b3e009ca1bp-1; 0x1.00b8c7f910d18p-3; 0x1.35d29c0e1db19p-1 ]
    ~ints:[ 491; 485; 318; 616; 958; 920; 159; 281 ]
    ~bools:[ true; true; false; false; true; true; false; false ];
  known_answers "split child"
    (fun () -> Rng.split (Rng.create 42))
    ~floats:
      [ 0x1.3eef22975fb8p-2; 0x1.97eb00285f3ddp-1; 0x1.cf244118faebcp-1; 0x1.052bb6ae17c44p-1;
        0x1.7d5214ff369d8p-2; 0x1.283ba7b2ac3b8p-4; 0x1.2de9a6d44d447p-1; 0x1.9482492a19eaap-1 ]
    ~ints:[ 665; 989; 371; 773; 663; 710; 826; 709 ]
    ~bools:[ true; true; true; true; true; true; false; true ];
  known_answers "copy"
    (fun () ->
      let g = Rng.create 42 in
      ignore (Rng.int g 1000);
      ignore (Rng.float g);
      Rng.copy g)
    ~floats:
      [ 0x1.f7c0f9f61849dp-1; 0x1.66fb3ec019b06p-1; 0x1.96463870e908dp-1; 0x1.2d1b3e009ca1bp-1;
        0x1.00b8c7f910d18p-3; 0x1.35d29c0e1db19p-1; 0x1.a9679ed784ae4p-3; 0x1.dddfac6433694p-1 ]
    ~ints:[ 318; 616; 958; 920; 159; 281; 614; 836 ]
    ~bools:[ false; false; true; true; false; false; true; false ]

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.float a <> Rng.float b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_copy_replays () =
  let a = Rng.create 7 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  let xs = List.init 50 (fun _ -> Rng.float a) in
  let ys = List.init 50 (fun _ -> Rng.float b) in
  Alcotest.(check (list (float 0.0))) "copy replays" xs ys

let test_split_independent_of_parent_continuation () =
  (* After a split, the parent's continuation must not equal the
     child's stream (they are distinct states). *)
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let px = List.init 20 (fun _ -> Rng.float parent) in
  let cx = List.init 20 (fun _ -> Rng.float child) in
  Alcotest.(check bool) "parent and child streams differ" true (px <> cx)

let test_split_deterministic () =
  let mk () =
    let parent = Rng.create 123 in
    let child = Rng.split parent in
    List.init 10 (fun _ -> Rng.float child)
  in
  Alcotest.(check (list (float 0.0))) "splits reproducible" (mk ()) (mk ())

let test_int_bounds () =
  let rng = Rng.create 5 in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let v = Rng.int rng bound in
      if v < 0 || v >= bound then Alcotest.failf "Rng.int %d out of range: %d" bound v
    done
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Chi-squared-ish sanity: each of 8 buckets within 3 sigma. *)
  let rng = Rng.create 77 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expect = float_of_int n /. 8.0 in
  let sigma = sqrt (expect *. (1.0 -. (1.0 /. 8.0))) in
  Array.iteri
    (fun i c ->
      if Float.abs (float_of_int c -. expect) > 4.0 *. sigma then
        Alcotest.failf "bucket %d count %d too far from %f" i c expect)
    buckets

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_bool_balance () =
  let rng = Rng.create 11 in
  let trues = ref 0 in
  let n = 40_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "fair coin near half" true (ratio > 0.47 && ratio < 0.53)

let test_bernoulli_extremes () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (ratio > 0.28 && ratio < 0.32)

let test_choice () =
  let rng = Rng.create 19 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choice rng arr in
    Alcotest.(check bool) "choice in array" true (Array.mem v arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice rng [||]))

let test_choice_list_covers_all () =
  let rng = Rng.create 23 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 500 do
    Hashtbl.replace seen (Rng.choice_list rng [ 1; 2; 3; 4 ]) ()
  done;
  Alcotest.(check int) "all elements seen" 4 (Hashtbl.length seen)

let test_pick_weighted () =
  let rng = Rng.create 29 in
  let counts = Hashtbl.create 2 in
  let bump k = Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0) in
  let n = 30_000 in
  for _ = 1 to n do
    bump (Rng.pick_weighted rng [ ("a", 1.0); ("b", 3.0) ])
  done;
  let b = float_of_int (Option.value (Hashtbl.find_opt counts "b") ~default:0) in
  let ratio = b /. float_of_int n in
  Alcotest.(check bool) "weighted ratio near 0.75" true (ratio > 0.72 && ratio < 0.78)

let test_pick_weighted_rejects () =
  let rng = Rng.create 31 in
  Alcotest.check_raises "zero weight total"
    (Invalid_argument "Rng.pick_weighted: non-positive total weight") (fun () ->
      ignore (Rng.pick_weighted rng [ ("a", 0.0) ]))

let test_shuffle_is_permutation () =
  let rng = Rng.create 37 in
  for _ = 1 to 50 do
    let arr = Array.init 20 Fun.id in
    Rng.shuffle rng arr;
    let sorted = Array.copy arr in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted
  done

let test_shuffle_moves_something () =
  let rng = Rng.create 41 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  Alcotest.(check bool) "not identity" true (arr <> Array.init 50 Fun.id)

let test_nonempty_subset () =
  let rng = Rng.create 43 in
  for _ = 1 to 500 do
    let sub = Rng.nonempty_subset rng [ 1; 2; 3; 4; 5 ] in
    Alcotest.(check bool) "non-empty" true (sub <> []);
    Alcotest.(check bool) "subset" true (List.for_all (fun x -> List.mem x [ 1; 2; 3; 4; 5 ]) sub);
    Alcotest.(check bool) "order preserved" true (List.sort compare sub = sub)
  done

let test_nonempty_subset_singleton () =
  let rng = Rng.create 47 in
  Alcotest.(check (list int)) "singleton" [ 9 ] (Rng.nonempty_subset rng [ 9 ])

let test_nonempty_subset_uniform () =
  (* Over {1,2}: subsets {1},{2},{1,2} each ~1/3. *)
  let rng = Rng.create 53 in
  let counts = Hashtbl.create 3 in
  let n = 30_000 in
  for _ = 1 to n do
    let s = Rng.nonempty_subset rng [ 1; 2 ] in
    Hashtbl.replace counts s (1 + Option.value (Hashtbl.find_opt counts s) ~default:0)
  done;
  Hashtbl.iter
    (fun _ c ->
      let ratio = float_of_int c /. float_of_int n in
      if ratio < 0.30 || ratio > 0.37 then Alcotest.failf "subset ratio off: %f" ratio)
    counts;
  Alcotest.(check int) "three subsets" 3 (Hashtbl.length counts)

let qcheck_int_in_bounds =
  QCheck.Test.make ~count:500 ~name:"rng int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_subset_sound =
  QCheck.Test.make ~count:300 ~name:"rng subset elements come from input"
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, items) ->
      let rng = Rng.create seed in
      List.for_all (fun x -> List.mem x items) (Rng.subset rng items))

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "split independence" `Quick test_split_independent_of_parent_continuation;
    Alcotest.test_case "split deterministic" `Quick test_split_deterministic;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bound 0" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "bool balance" `Slow test_bool_balance;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
    Alcotest.test_case "choice" `Quick test_choice;
    Alcotest.test_case "choice list coverage" `Quick test_choice_list_covers_all;
    Alcotest.test_case "pick weighted ratios" `Slow test_pick_weighted;
    Alcotest.test_case "pick weighted rejects" `Quick test_pick_weighted_rejects;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_something;
    Alcotest.test_case "nonempty subset" `Quick test_nonempty_subset;
    Alcotest.test_case "nonempty subset singleton" `Quick test_nonempty_subset_singleton;
    Alcotest.test_case "nonempty subset uniform" `Slow test_nonempty_subset_uniform;
    QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_subset_sound;
    Alcotest.test_case "known answers" `Quick test_known_answers;
  ]
