let () = assert (M.length [ 1 ] + M.seam_used () = 7)
