let m = 3

let bottom_enabled ~n:_ cfg = (cfg.(0) + 1) mod m = cfg.(1)

let normal_enabled ~n cfg p =
  p > 0 && p < n - 1
  && ((cfg.(p) + 1) mod m = cfg.(p - 1) || (cfg.(p) + 1) mod m = cfg.(p + 1))

let top_enabled ~n cfg =
  cfg.(n - 2) = cfg.(0) && (cfg.(n - 2) + 1) mod m <> cfg.(n - 1)

let is_privileged ~n cfg p =
  if p = 0 then bottom_enabled ~n cfg
  else if p = n - 1 then top_enabled ~n cfg
  else normal_enabled ~n cfg p

let make ~n =
  if n < 3 then invalid_arg "Dijkstra_three.make: need n >= 3";
  let bottom : int Stabcore.Protocol.action =
    {
      label = "bottom";
      guard = (fun cfg p -> p = 0 && bottom_enabled ~n cfg);
      result = (fun cfg _ -> [ ((cfg.(0) + 2) mod m, 1.0) ]);
    }
  in
  let normal : int Stabcore.Protocol.action =
    {
      label = "normal";
      guard = (fun cfg p -> normal_enabled ~n cfg p);
      result =
        (fun cfg p ->
          (* Left privilege preferred when both are held. *)
          let next =
            if (cfg.(p) + 1) mod m = cfg.(p - 1) then cfg.(p - 1) else cfg.(p + 1)
          in
          [ (next, 1.0) ]);
    }
  in
  let top : int Stabcore.Protocol.action =
    {
      label = "top";
      guard = (fun cfg p -> p = n - 1 && top_enabled ~n cfg);
      result = (fun cfg _ -> [ ((cfg.(n - 2) + 1) mod m, 1.0) ]);
    }
  in
  {
    Stabcore.Protocol.name = Printf.sprintf "dijkstra-3state(n=%d)" n;
    graph = Stabgraph.Graph.ring n;
    domain = (fun _ -> [ 0; 1; 2 ]);
    actions = [ bottom; normal; top ];
    equal = Int.equal;
    pp = Format.pp_print_int;
    randomized = false;
  }

let spec ~n =
  (* Runs once per engine step: count in place, build no list. *)
  Stabcore.Spec.make ~name:"single-privilege-3state" (fun cfg ->
      let count = ref 0 in
      for p = 0 to n - 1 do
        if is_privileged ~n cfg p then incr count
      done;
      !count = 1)
