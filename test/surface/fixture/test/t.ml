let () = assert (M.length [ 1 ] + M.seam_used () = 7)
let () = assert (M.count { M.count = 1 } = 1)
