type stats = { explored : int; edges : int; complete : bool }

type verdict = Converges | Counterexample of int | Unknown

(* The explored sub-system: codes indexed densely in discovery order
   (index -> code), forward edges as index lists (index -> successor
   indexes), and the stats. *)
let explore ?(max_states = 1_000_000) space cls ~inits =
  let index_of = Hashtbl.create 1024 in
  let codes = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let register code =
    match Hashtbl.find_opt index_of code with
    | Some idx -> idx
    | None ->
      let idx = !count in
      Hashtbl.add index_of code idx;
      codes := code :: !codes;
      incr count;
      Queue.add (idx, code) queue;
      idx
  in
  List.iter (fun cfg -> ignore (register (Statespace.code space cfg))) inits;
  let adjacency = ref [] in
  let edges = ref 0 in
  let complete = ref true in
  let iterations = ref 0 in
  (try
     while not (Queue.is_empty queue) do
       (* Poll on the first iteration too: a cancelled exploration must
          stop even when it would stay under 256 states. *)
       if !iterations land 255 = 0 then Cancel.poll ();
       incr iterations;
       let _, code = Queue.pop queue in
       let successors = Statespace.successors space cls code in
       let succ_idx =
         List.map
           (fun code' ->
             if !count >= max_states && not (Hashtbl.mem index_of code') then raise Exit;
             register code')
           successors
       in
       edges := !edges + List.length succ_idx;
       adjacency := succ_idx :: !adjacency
     done
   with Exit -> complete := false);
  let n = !count in
  let fwd = Array.make n [] in
  (* adjacency was pushed in processing order, which is discovery
     order 0, 1, 2, ... for fully processed nodes. *)
  List.iteri (fun idx succs -> fwd.(idx) <- succs) (List.rev !adjacency);
  (Array.of_list (List.rev !codes), fwd, { explored = n; edges = !edges; complete = !complete })

let possible_verdict codes fwd legitimate =
  let n = Array.length codes in
  let rev = Array.make n [] in
  Array.iteri (fun idx succs -> List.iter (fun j -> rev.(j) <- idx :: rev.(j)) succs) fwd;
  let reaches = Array.copy legitimate in
  let queue = Queue.create () in
  Array.iteri (fun idx ok -> if ok then Queue.add idx queue) legitimate;
  while not (Queue.is_empty queue) do
    let idx = Queue.pop queue in
    List.iter
      (fun pred ->
        if not reaches.(pred) then begin
          reaches.(pred) <- true;
          Queue.add pred queue
        end)
      rev.(idx)
  done;
  match Array.find_index not reaches with
  | None -> Converges
  | Some idx -> Counterexample codes.(idx)

let certain_verdict codes fwd legitimate =
  let n = Array.length codes in
  (* Dead ends: no successors and illegitimate. *)
  let dead_end idx succs = if succs = [] && not legitimate.(idx) then Some idx else None in
  match Array.find_mapi dead_end fwd with
  | Some idx -> Counterexample codes.(idx)
  | None ->
    (* Cycle detection on the sub-graph outside L. *)
    let color = Array.make n 0 in
    let exception Found of int in
    (try
       for start = 0 to n - 1 do
         if (not legitimate.(start)) && color.(start) = 0 then begin
           let stack = Stack.create () in
           let outside idx = List.filter (fun j -> not legitimate.(j)) fwd.(idx) in
           color.(start) <- 1;
           Stack.push (start, ref (outside start)) stack;
           while not (Stack.is_empty stack) do
             let node, remaining = Stack.top stack in
             match !remaining with
             | [] ->
               color.(node) <- 2;
               ignore (Stack.pop stack)
             | next :: rest ->
               remaining := rest;
               if color.(next) = 1 then raise (Found next)
               else if color.(next) = 0 then begin
                 color.(next) <- 1;
                 Stack.push (next, ref (outside next)) stack
               end
           done
         end
       done;
       Converges
     with Found idx -> Counterexample codes.(idx))

type analysis = { possible : verdict; certain : verdict; stats : stats }

let analyze ?max_states space cls spec ~inits =
  let codes, fwd, stats = explore ?max_states space cls ~inits in
  if not stats.complete then { possible = Unknown; certain = Unknown; stats }
  else
    let legit code = spec.Spec.legitimate (Statespace.config space code) in
    let legitimate = Array.map legit codes in
    { possible = possible_verdict codes fwd legitimate;
      certain = certain_verdict codes fwd legitimate; stats }
