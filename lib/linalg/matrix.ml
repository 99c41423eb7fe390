type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions must be positive";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let identity n =
  let m = create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    set m i i 1.0
  done;
  m

let of_rows arr =
  let r = Array.length arr in
  if r = 0 then invalid_arg "Matrix.of_rows: empty";
  let c = Array.length arr.(0) in
  if c = 0 then invalid_arg "Matrix.of_rows: empty row";
  let m = create ~rows:r ~cols:c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> set m i j v) row)
    arr;
  m

let copy m = { m with data = Array.copy m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          set out i j (get out i j +. (aik *. get b k j))
        done
    done
  done;
  out

let pivot_tolerance = 1e-12

(* In-place forward elimination + back substitution: [a] square, [b]
   of the same size. Both are destroyed; the solution lands in [b]. *)
let solve_in_place a b =
  let n = a.rows in
  if a.cols <> n then invalid_arg "Matrix.solve: matrix not square";
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
  solve_in_place (copy a) b;
  b

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<hov 2>[";
    for j = 0 to m.cols - 1 do
      Format.fprintf fmt "@ %.6g" (get m i j)
    done;
    Format.fprintf fmt " ]@]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
