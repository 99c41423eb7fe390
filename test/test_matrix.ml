(* Tests for the dense linear algebra used by the Markov analysis. *)

open Stablinalg

let check_float = Alcotest.(check (float 1e-9))

(* The square matrix with these rows, written into an identity. *)
let of_rows rows =
  let m = Matrix.identity (Array.length rows) in
  Array.iteri (fun i row -> Array.iteri (fun j v -> Matrix.set m i j v) row) rows;
  m

(* Infinity-norm distance between two n x n matrices. *)
let max_abs_diff n a b =
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      best := Float.max !best (Float.abs (Matrix.get a i j -. Matrix.get b i j))
    done
  done;
  !best

let test_create_get_set () =
  let m = Matrix.identity 3 in
  check_float "zero off the diagonal" 0.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 5.5;
  check_float "set/get" 5.5 (Matrix.get m 1 2);
  check_float "neighbor untouched" 0.0 (Matrix.get m 2 1)

let test_identity () =
  let i3 = Matrix.identity 3 in
  for r = 0 to 2 do
    for c = 0 to 2 do
      check_float "identity entries" (if r = c then 1.0 else 0.0) (Matrix.get i3 r c)
    done
  done

let test_solve_known_system () =
  (* 2x + y = 5; x - y = 1  =>  x = 2, y = 1 *)
  let a = of_rows [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Matrix.solve a [| 5.0; 1.0 |] in
  check_float "x" 2.0 x.(0);
  check_float "y" 1.0 x.(1)

let test_solve_requires_pivoting () =
  (* Leading zero pivot forces a row swap. *)
  let a = of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 3.0; 4.0 |] in
  check_float "x" 4.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_solve_singular () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular"
    (Failure "Matrix.solve: singular system (column 1, pivot 0)") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_solve_tiny_units () =
  (* Well-conditioned but expressed in units far below the absolute
     pivot floor: the scaled test must not call this singular. *)
  let a = of_rows [| [| 2e-20; 1e-20 |]; [| 1e-20; -1e-20 |] |] in
  let x = Matrix.solve a [| 5e-20; 1e-20 |] in
  check_float "x" 2.0 x.(0);
  check_float "y" 1.0 x.(1)

let test_solve_zero_column () =
  let a = of_rows [| [| 0.0; 1.0 |]; [| 0.0; 2.0 |] |] in
  Alcotest.check_raises "zero column"
    (Failure "Matrix.solve: singular system (column 0, pivot 0)") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_solve_does_not_mutate () =
  let rows = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let a = of_rows rows in
  ignore (Matrix.solve a [| 5.0; 1.0 |]);
  check_float "a unchanged" 0.0 (max_abs_diff 2 a (of_rows rows))

let test_solve_random_roundtrip () =
  (* Solve a x = b for random a, b and verify a x = b. *)
  let rng = Stabrng.Rng.create 4242 in
  for _ = 1 to 25 do
    let n = 1 + Stabrng.Rng.int rng 12 in
    let a =
      of_rows
        (Array.init n (fun i ->
             Array.init n (fun j ->
                 (* Diagonal dominance keeps the system well-conditioned. *)
                 let v = Stabrng.Rng.float rng -. 0.5 in
                 if i = j then v +. 4.0 else v)))
    in
    let b = Array.init n (fun _ -> Stabrng.Rng.float rng *. 10.0) in
    let x = Matrix.solve a b in
    let b' =
      Array.init n (fun i ->
          let acc = ref 0.0 in
          Array.iteri (fun j xj -> acc := !acc +. (Matrix.get a i j *. xj)) x;
          !acc)
    in
    Array.iteri
      (fun i bi ->
        if Float.abs (bi -. b'.(i)) > 1e-8 then
          Alcotest.failf "residual too large at %d: %g vs %g" i bi b'.(i))
      b
  done

(* The elimination indexes the row-major data in place, so a solve
   allocates O(n) minor words (3 measured; its copies of [a] and [b] go
   straight to the major heap at this size), not boxed floats per
   multiply-add: this dense system took 129M minor words, about 806 n^2,
   when the loops read and wrote through [get] and [set]. *)
let test_solve_allocation () =
  let n = 400 in
  let rng = Stabrng.Rng.create 400 in
  let a = Matrix.identity n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Stabrng.Rng.float rng -. 0.5 in
      Matrix.set a i j (if i = j then v +. float_of_int n else v)
    done
  done;
  let b = Array.init n (fun _ -> Stabrng.Rng.float rng) in
  let before = Gc.minor_words () in
  ignore (Matrix.solve a b);
  let words = Gc.minor_words () -. before in
  if words >= float_of_int (n * n) then
    Alcotest.failf "a %dx%d solve allocated %.0f minor words (at least n^2)" n n words

let qcheck_solve_diag =
  QCheck.Test.make ~count:100 ~name:"diagonal systems solve exactly"
    QCheck.(pair (list_of_size (Gen.int_range 1 8) (float_range 1.0 10.0)) (float_range (-5.0) 5.0))
    (fun (diag, rhs) ->
      QCheck.assume (diag <> []);
      let n = List.length diag in
      let a = Matrix.identity n in
      List.iteri (fun i d -> Matrix.set a i i d) diag;
      let b = Array.make n rhs in
      let x = Matrix.solve a b in
      List.for_all2
        (fun d xi -> Float.abs ((d *. xi) -. rhs) < 1e-9)
        diag (Array.to_list x))

let suite =
  [
    Alcotest.test_case "create/get/set" `Quick test_create_get_set;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "solve known" `Quick test_solve_known_system;
    Alcotest.test_case "solve pivoting" `Quick test_solve_requires_pivoting;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve tiny units" `Quick test_solve_tiny_units;
    Alcotest.test_case "solve zero column" `Quick test_solve_zero_column;
    Alcotest.test_case "solve pure" `Quick test_solve_does_not_mutate;
    Alcotest.test_case "solve random roundtrip" `Quick test_solve_random_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_solve_diag;
    Alcotest.test_case "solve allocation" `Quick test_solve_allocation;
  ]
