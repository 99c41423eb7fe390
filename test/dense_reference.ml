open Stabcore

(* x = base + P x over [transient], with [x] holding the boundary
   values; the transient entries are written. *)
let solve chain ~transient ~base x =
  let n = Markov.states chain in
  let states = Array.of_list (List.filter (Array.get transient) (List.init n Fun.id)) in
  let t = Array.length states in
  if t > 0 then begin
    let pos = Array.make n (-1) in
    Array.iteri (fun i c -> pos.(c) <- i) states;
    let a = Stablinalg.Matrix.identity t and b = Array.make t base in
    Array.iteri
      (fun i c ->
        List.iter
          (fun (c', w) ->
            let j = pos.(c') in
            if j >= 0 then Stablinalg.Matrix.set a i j (Stablinalg.Matrix.get a i j -. w)
            else b.(i) <- b.(i) +. (w *. x.(c')))
          (Markov.row chain c))
      states;
    let solved = Stablinalg.Matrix.solve a b in
    Array.iteri (fun i c -> x.(c) <- solved.(i)) states
  end

let hitting_times chain ~legitimate =
  let x = Array.make (Markov.states chain) 0.0 in
  solve chain ~transient:(Array.map not legitimate) ~base:1.0 x;
  x

let absorption chain ~legitimate =
  let can_reach = Markov.reaches chain ~target:legitimate in
  let x = Array.map (fun l -> if l then 1.0 else 0.0) legitimate in
  solve chain ~transient:(Array.mapi (fun c l -> can_reach.(c) && not l) legitimate) ~base:0.0 x;
  x
