let popcount mask =
  let rec go mask acc = if mask = 0 then acc else go (mask lsr 1) (acc + (mask land 1)) in
  go mask 0

let token_positions ~n mask =
  List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init n Fun.id)

(* Move the token at [p] one step left or right; merging is just the
   bitwise-or of destination bits. *)
let move ~n mask p ~right =
  let dest = if right then (p + 1) mod n else (p - 1 + n) mod n in
  mask land lnot (1 lsl p) lor (1 lsl dest)

let nonempty_submasks bits =
  (* All non-empty sub-bitmasks of the token set [bits]. *)
  let rec go sub acc =
    let acc = sub :: acc in
    if sub = 0 then acc else go ((sub - 1) land bits) acc
  in
  match go bits [] with
  | 0 :: rest -> rest
  | rest -> List.filter (fun m -> m <> 0) rest

let central_row ~n mask =
  match token_positions ~n mask with
  | [] -> [ (mask, 1.0) ]
  | tokens ->
    let per_token = 1.0 /. float_of_int (List.length tokens) in
    List.concat_map
      (fun p ->
        [
          (move ~n mask p ~right:false, per_token *. 0.5);
          (move ~n mask p ~right:true, per_token *. 0.5);
        ])
      tokens

let distributed_row ~n mask =
  if mask = 0 then [ (mask, 1.0) ]
  else begin
    let subsets = nonempty_submasks mask in
    let per_subset = 1.0 /. float_of_int (List.length subsets) in
    List.concat_map
      (fun subset ->
        let movers = token_positions ~n subset in
        let stay = mask land lnot subset in
        let move_count = List.length movers in
        let per_outcome = per_subset /. float_of_int (1 lsl move_count) in
        (* Enumerate all left/right choices of the movers. *)
        let rec branches movers acc =
          match movers with
          | [] -> [ acc ]
          | p :: rest ->
            branches rest (acc lor (1 lsl ((p + 1) mod n)))
            @ branches rest (acc lor (1 lsl ((p - 1 + n) mod n)))
        in
        List.map (fun bits -> (stay lor bits, per_outcome)) (branches movers 0))
      subsets
  end

let chain ~n ~central =
  if n < 3 || n > 20 then invalid_arg "Israeli_jalfon.chain: need 3 <= n <= 20";
  let rows =
    Array.init (1 lsl n) (fun mask ->
        if central then central_row ~n mask else distributed_row ~n mask)
  in
  Stabcore.Markov.of_rows rows

let legitimate ~n = Array.init (1 lsl n) (fun mask -> popcount mask = 1)

let sample_convergence ~runs ~max_steps rng ~n ~init_tokens =
  if init_tokens = [] then invalid_arg "Israeli_jalfon.sample_convergence: no tokens";
  let init_mask = List.fold_left (fun acc p -> acc lor (1 lsl (p mod n))) 0 init_tokens in
  let out =
    Stabcore.Montecarlo.sample ~runs rng (fun stream ->
        let rec go mask steps =
          if popcount mask = 1 then Some steps
          else if steps >= max_steps then None
          else begin
            let tokens = Array.of_list (token_positions ~n mask) in
            let p = Stabrng.Rng.choice stream tokens in
            let right = Stabrng.Rng.bool stream in
            go (move ~n mask p ~right) (steps + 1)
          end
        in
        go init_mask 0)
  in
  let times = Array.of_list (List.filter_map Fun.id (Array.to_list out)) in
  (* In the token-level abstraction each step activates one token, so
     steps and rounds coincide. *)
  Stabcore.Montecarlo.of_samples ~times ~rounds:(Array.copy times)
    ~timeouts:(runs - Array.length times)
