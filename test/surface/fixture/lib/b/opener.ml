open Fixlib.M

let via_open () = bare ()
