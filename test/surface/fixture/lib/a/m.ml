let length = List.length
let internal () = 1
let aliased () = internal ()
let opened () = 2
let bare () = 3
let prefixed () = 4

module Sub = struct
  let nested () = 5
end

let seam_used () = 6
let seam_unused () = 7

type tally = { count : int }

let count t = t.count
