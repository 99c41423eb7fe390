(* Callers of M, each naming one value the way surface.sh resolves. *)
module Alias = Fixlib.M

let total xs = Array.length xs + List.length (Array.to_list xs)
let via_alias () = Alias.aliased ()
let via_nested () = M.Sub.nested ()
let via_prefix () = Fixlib.M.prefixed ()
let via_field (t : Fixlib.M.tally) = t.Fixlib.M.count
let via_label () = { Fixlib.M.count = 1 }
let via_with t = { t with M.count = 2 }
