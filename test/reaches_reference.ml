open Stabcore

(* Components complete sinks first, so every edge leaving a component
   lands in one whose mark is already final. *)
let reaches g ~target =
  let marked = Array.copy target in
  let hits u = marked.(u) || Digraph.exists_succ g u (Array.get marked) in
  List.iter
    (fun members ->
      if Array.exists hits members then Array.iter (fun u -> marked.(u) <- true) members)
    (Digraph.sccs g);
  marked
