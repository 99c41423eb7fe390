let smallest_non_divisor n =
  if n < 1 then invalid_arg "Token_ring.smallest_non_divisor: n must be >= 1";
  let rec go d = if n mod d <> 0 then d else go (d + 1) in
  go 2

let predecessor ~n p = (p - 1 + n) mod n

(* [m] is passed in: the guard runs once per process per configuration,
   and recomputing [smallest_non_divisor n] there would allocate its
   local closure on every call. *)
let holds_token ~n ~m cfg p = cfg.(p) <> (cfg.(predecessor ~n p) + 1) mod m
let has_token ~n cfg p = holds_token ~n ~m:(smallest_non_divisor n) cfg p

let holders ~n ~m cfg = List.filter (holds_token ~n ~m cfg) (List.init n Fun.id)
let token_holders ~n cfg = holders ~n ~m:(smallest_non_divisor n) cfg

(* The legitimacy predicate runs once per engine step: it counts
   holders in place rather than building the list. *)
let holder_count ~n ~m cfg =
  let count = ref 0 in
  for p = 0 to n - 1 do
    if holds_token ~n ~m cfg p then incr count
  done;
  !count

let make ~n =
  if n < 3 then invalid_arg "Token_ring.make: need n >= 3";
  let m = smallest_non_divisor n in
  let pass_token : int Stabcore.Protocol.action =
    {
      label = "A";
      guard = (fun cfg p -> holds_token ~n ~m cfg p);
      result = (fun cfg p -> [ ((cfg.(predecessor ~n p) + 1) mod m, 1.0) ]);
    }
  in
  {
    Stabcore.Protocol.name = Printf.sprintf "token-ring(n=%d,m=%d)" n m;
    graph = Stabgraph.Graph.ring n;
    domain = (fun _ -> List.init m Fun.id);
    actions = [ pass_token ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let spec ~n =
  let m = smallest_non_divisor n in
  let step_ok before after =
    match (holders ~n ~m before, holders ~n ~m after) with
    | [ h ], [ h' ] -> h' = (h + 1) mod n
    | _ -> false
  in
  Stabcore.Spec.make ~step_ok ~name:"single-circulating-token" (fun cfg ->
      holder_count ~n ~m cfg = 1)

(* Configurations are determined by the increments c_p = (dt_p -
   dt_pred) mod m: p holds a token iff c_p <> 1, and the increments sum
   to 0 mod m around the ring. We pick increments matching the
   requested holders, then integrate. *)
let config_with_tokens_at ~n holders =
  if n < 3 then invalid_arg "Token_ring.config_with_tokens_at: need n >= 3";
  let m = smallest_non_divisor n in
  let k = List.length holders in
  if k = 0 then
    invalid_arg "Token_ring.config_with_tokens_at: zero tokens is impossible (Lemma 4)";
  List.iter
    (fun p ->
      if p < 0 || p >= n then invalid_arg "Token_ring.config_with_tokens_at: holder out of range")
    holders;
  let sorted = List.sort_uniq compare holders in
  if List.length sorted <> k then
    invalid_arg "Token_ring.config_with_tokens_at: duplicate holders";
  (* Required sum of token increments: total 0 mod m, non-holders give 1 each. *)
  let residue = ((-(n - k)) mod m + m) mod m in
  let increments = Array.make n 1 in
  (* All token increments 0, except possibly the last two fixed up so
     the sum hits [residue] while avoiding the forbidden value 1. *)
  let assign values =
    List.iter2 (fun p c -> increments.(p) <- c) sorted values
  in
  (if m = 2 then
     if residue = 0 then assign (List.map (fun _ -> 0) sorted)
     else
       invalid_arg
         "Token_ring.config_with_tokens_at: token count has the wrong parity for this ring"
   else begin
     (* m >= 3: set all but the last token to 0; the last takes the
        residue. If that lands on 1, shift 2 onto the second-to-last. *)
     let all_but_last = List.map (fun _ -> 0) (List.tl sorted) in
     if residue <> 1 then assign (all_but_last @ [ residue ])
     else if k >= 2 then begin
       let first_tokens = List.map (fun _ -> 0) (List.tl (List.tl sorted)) in
       let last = ((residue - 2) mod m + m) mod m in
       assign (first_tokens @ [ 2; last ])
     end
     else
       invalid_arg
         "Token_ring.config_with_tokens_at: a single token at this position is impossible"
   end);
  let cfg = Array.make n 0 in
  for p = 1 to n - 1 do
    cfg.(p) <- (cfg.(p - 1) + increments.(p)) mod m
  done;
  cfg

let legitimate_config ~n = config_with_tokens_at ~n [ 0 ]
