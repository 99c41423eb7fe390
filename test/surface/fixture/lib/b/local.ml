(* A local open makes every word of this file a possible use of M, so
   it lives apart from user.ml. *)
let via_local_open () = M.(opened ())
