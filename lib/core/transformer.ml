type 'a coin_state = { core : 'a; coin : bool }

let project_config cfg = Array.map (fun s -> s.core) cfg

let lift_config cores ~coins =
  if Array.length cores <> Array.length coins then
    invalid_arg "Transformer.lift_config: length mismatch";
  Array.mapi (fun i core -> { core; coin = coins.(i) }) cores

let randomize ?(coin_bias = 0.5) (p : 'a Protocol.t) =
  if coin_bias <= 0.0 || coin_bias >= 1.0 then
    invalid_arg "Transformer.randomize: coin_bias outside (0, 1)";
  (* Every transformed guard and statement reads the projection of its
     configuration. Each domain keeps the last one it built and reuses
     it while the configuration's cores are physically the ones it
     holds, rewriting only the slots that differ, so an engine step
     projects without allocating. An original guard or statement must
     not keep the projection past its call. *)
  let buffer = Domain.DLS.new_key (fun () -> [||]) in
  let project cfg =
    let proj = Domain.DLS.get buffer in
    if Array.length proj <> Array.length cfg then begin
      let proj = project_config cfg in
      Domain.DLS.set buffer proj;
      proj
    end
    else begin
      for i = 0 to Array.length cfg - 1 do
        let core = cfg.(i).core in
        if proj.(i) != core then proj.(i) <- core
      done;
      proj
    end
  in
  let transform_action (a : 'a Protocol.action) =
    {
      Protocol.label = "Trans(" ^ a.Protocol.label ^ ")";
      guard = (fun cfg i -> a.Protocol.guard (project cfg) i);
      result =
        (fun cfg i ->
          (* Coin lost: keep the core state, record the toss. Coin won:
             run the original statement, record the toss. *)
          let core_dist = a.Protocol.result (project cfg) i in
          let win =
            List.map
              (fun (s, w) -> ({ core = s; coin = true }, w *. coin_bias))
              core_dist
          in
          let lose = ({ core = cfg.(i).core; coin = false }, 1.0 -. coin_bias) in
          (* Merge duplicate outcomes (possible when the statement is a
             no-op on some branch). *)
          let equal a b = p.Protocol.equal a.core b.core && a.coin = b.coin in
          let rec add acc (s, w) =
            match acc with
            | [] -> [ (s, w) ]
            | (s', w') :: rest ->
              if equal s s' then (s', w' +. w) :: rest else (s', w') :: add rest (s, w)
          in
          List.fold_left add [] (lose :: win));
    }
  in
  {
    Protocol.name = p.Protocol.name ^ "+trans";
    graph = p.Protocol.graph;
    domain =
      (fun i ->
        List.concat_map
          (fun core -> [ { core; coin = false }; { core; coin = true } ])
          (p.Protocol.domain i));
    actions = List.map transform_action p.Protocol.actions;
    equal = (fun a b -> p.Protocol.equal a.core b.core && a.coin = b.coin);
    pp =
      (fun fmt s ->
        Format.fprintf fmt "%a%s" p.Protocol.pp s.core (if s.coin then "+" else "-"));
    randomized = true;
  }

let lift_spec spec =
  let projected = Spec.project (fun s -> s.core) spec in
  (* Steps whose coin tosses all fail leave the projection unchanged; a
     specification of the original system must accept such stuttering
     (the projected behaviour is what SP constrains). Structural
     equality is adequate here because protocol states are plain
     values. *)
  let step_ok =
    Option.map
      (fun ok before after ->
        let b = project_config before and a = project_config after in
        b = a || ok b a)
      spec.Spec.step_ok
  in
  { projected with Spec.step_ok }
