type 'a t = {
  domains : 'a array array;
  equal : 'a -> 'a -> bool;
  weights : int array; (* weights.(i) = prod_{j<i} |D_j| *)
  count : int;
}

let make ~equal domains =
  let n = Array.length domains in
  if n = 0 then invalid_arg "Encoding.make: no processes";
  let domains = Array.map Array.of_list domains in
  Array.iter
    (fun dom ->
      if Array.length dom = 0 then invalid_arg "Encoding.make: empty domain";
      Array.iteri
        (fun i s ->
          for j = i + 1 to Array.length dom - 1 do
            if equal s dom.(j) then invalid_arg "Encoding.make: duplicate domain value"
          done)
        dom)
    domains;
  let weights = Array.make n 1 in
  let count = ref 1 in
  Array.iteri
    (fun i dom ->
      weights.(i) <- !count;
      let size = Array.length dom in
      if !count > max_int / size then invalid_arg "Encoding.make: state space too large";
      count := !count * size)
    domains;
  { domains; equal; weights; count = !count }

let of_protocol (p : 'a Protocol.t) =
  let n = Stabgraph.Graph.size p.Protocol.graph in
  make ~equal:p.Protocol.equal (Array.init n p.Protocol.domain)

let count t = t.count
let processes t = Array.length t.domains
let domain_size t i = Array.length t.domains.(i)
let value t i d = t.domains.(i).(d)
let digit t i code = (code / t.weights.(i)) mod Array.length t.domains.(i)
let weight t i = t.weights.(i)

let index_opt t i s =
  let dom = t.domains.(i) in
  let rec go k =
    if k >= Array.length dom then None
    else if t.equal s dom.(k) then Some k
    else go (k + 1)
  in
  go 0

(* A loop rather than a local recursive function: expansion calls this
   once per enabled process, and the closure would be allocated each
   time. *)
let index_in_domain t i s =
  let dom = t.domains.(i) in
  let k = ref 0 in
  while !k < Array.length dom && not (t.equal s dom.(!k)) do
    incr k
  done;
  if !k >= Array.length dom then invalid_arg "Encoding.encode: state outside domain";
  !k

let encode t cfg =
  if Array.length cfg <> Array.length t.domains then
    invalid_arg "Encoding.encode: wrong configuration length";
  let code = ref 0 in
  Array.iteri (fun i s -> code := !code + (index_in_domain t i s * t.weights.(i))) cfg;
  !code

let decode_into t code cfg =
  if code < 0 || code >= t.count then invalid_arg "Encoding.decode: code out of range";
  if Array.length cfg <> Array.length t.domains then
    invalid_arg "Encoding.decode_into: wrong configuration length";
  for i = 0 to Array.length cfg - 1 do
    let dom = t.domains.(i) in
    cfg.(i) <- dom.((code / t.weights.(i)) mod Array.length dom)
  done

let decode t code =
  let cfg = Array.map (fun dom -> dom.(0)) t.domains in
  decode_into t code cfg;
  cfg

let iter t f =
  let n = Array.length t.domains in
  let cfg = Array.map (fun dom -> dom.(0)) t.domains in
  let indexes = Array.make n 0 in
  let rec bump i = (* mixed-radix increment; returns false on wrap-around *)
    if i >= n then false
    else begin
      let dom = t.domains.(i) in
      if indexes.(i) + 1 < Array.length dom then begin
        indexes.(i) <- indexes.(i) + 1;
        cfg.(i) <- dom.(indexes.(i));
        true
      end
      else begin
        indexes.(i) <- 0;
        cfg.(i) <- dom.(0);
        bump (i + 1)
      end
    end
  in
  let rec go code =
    f code cfg;
    if bump 0 then go (code + 1)
  in
  go 0
