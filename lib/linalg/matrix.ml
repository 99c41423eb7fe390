(* Square, row-major. *)
type t = { n : int; data : float array }

let get m i j = m.data.((i * m.n) + j)
let set m i j v = m.data.((i * m.n) + j) <- v

let identity n =
  if n <= 0 then invalid_arg "Matrix.identity: dimension must be positive";
  let m = { n; data = Array.make (n * n) 0.0 } in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let pivot_tolerance = 1e-12

(* In-place forward elimination + back substitution: [b] of [a]'s
   size. Both are destroyed; the solution lands in [b]. *)
let solve_in_place a b =
  let n = a.n in
  if Array.length b <> n then invalid_arg "Matrix.solve: rhs dimension mismatch";
  let swap_rows i j =
    if i <> j then begin
      for k = 0 to n - 1 do
        let tmp = get a i k in
        set a i k (get a j k);
        set a j k tmp
      done;
      let tmp = b.(i) in
      b.(i) <- b.(j);
      b.(j) <- tmp
    end
  in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest |entry| of the column up. *)
    let pivot_row = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (get a r col) > Float.abs (get a !pivot_row col) then pivot_row := r
    done;
    (* The pivot threshold scales with the column's largest |entry|
       (over all rows, eliminated ones included), so a well-conditioned
       system expressed in tiny units is not misdiagnosed as singular,
       while a column eliminated down to round-off residue fails at any
       scale. *)
    let pivot_abs = Float.abs (get a !pivot_row col) in
    let col_scale = ref pivot_abs in
    for r = 0 to n - 1 do
      col_scale := Float.max !col_scale (Float.abs (get a r col))
    done;
    if !col_scale = 0.0 || pivot_abs < pivot_tolerance *. !col_scale then
      failwith
        (Printf.sprintf "Matrix.solve: singular system (column %d, pivot %g)" col
           pivot_abs);
    swap_rows col !pivot_row;
    let pivot = get a col col in
    for r = col + 1 to n - 1 do
      let factor = get a r col /. pivot in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          set a r k (get a r k -. (factor *. get a col k))
        done;
        b.(r) <- b.(r) -. (factor *. b.(col))
      end
    done
  done;
  for col = n - 1 downto 0 do
    let acc = ref b.(col) in
    for j = col + 1 to n - 1 do
      acc := !acc -. (get a col j *. b.(j))
    done;
    b.(col) <- !acc /. get a col col
  done

let solve a b =
  let b = Array.copy b in
  solve_in_place { a with data = Array.copy a.data } b;
  b
