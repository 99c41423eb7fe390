let seed =
  lazy
    (let s =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None -> 2008
     in
     Printf.printf "qcheck seed: %d (set QCHECK_SEED to replay another)\n%!" s;
     s)

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t
