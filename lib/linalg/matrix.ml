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
   size. Both are destroyed; the solution lands in [b]. The loops index
   [data] directly: a float read through [get] is boxed when the call
   is not inlined, once per multiply-add. *)
let solve_in_place a b =
  let n = a.n and data = a.data in
  if Array.length b <> n then invalid_arg "Matrix.solve: rhs dimension mismatch";
  let swap_rows i j =
    if i <> j then begin
      for k = 0 to n - 1 do
        let tmp = data.((i * n) + k) in
        data.((i * n) + k) <- data.((j * n) + k);
        data.((j * n) + k) <- tmp
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
      if Float.abs data.((r * n) + col) > Float.abs data.((!pivot_row * n) + col) then
        pivot_row := r
    done;
    (* The pivot threshold scales with the column's largest |entry|
       (over all rows, eliminated ones included), so a well-conditioned
       system expressed in tiny units is not misdiagnosed as singular,
       while a column eliminated down to round-off residue fails at any
       scale. *)
    let pivot_abs = Float.abs data.((!pivot_row * n) + col) in
    let col_scale = ref pivot_abs in
    for r = 0 to n - 1 do
      col_scale := Float.max !col_scale (Float.abs data.((r * n) + col))
    done;
    if !col_scale = 0.0 || pivot_abs < pivot_tolerance *. !col_scale then
      failwith
        (Printf.sprintf "Matrix.solve: singular system (column %d, pivot %g)" col
           pivot_abs);
    swap_rows col !pivot_row;
    let prow = col * n in
    let pivot = data.(prow + col) in
    for r = col + 1 to n - 1 do
      let row = r * n in
      let factor = data.(row + col) /. pivot in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          data.(row + k) <- data.(row + k) -. (factor *. data.(prow + k))
        done;
        b.(r) <- b.(r) -. (factor *. b.(col))
      end
    done
  done;
  for col = n - 1 downto 0 do
    let row = col * n in
    let acc = ref b.(col) in
    for j = col + 1 to n - 1 do
      acc := !acc -. (data.(row + j) *. b.(j))
    done;
    b.(col) <- !acc /. data.(row + col)
  done

let solve a b =
  let b = Array.copy b in
  solve_in_place { a with data = Array.copy a.data } b;
  b
