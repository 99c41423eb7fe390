let pp_fired fmt fired =
  Format.fprintf fmt "@[<h>{";
  List.iteri
    (fun i (p, label) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%d:%s" p label)
    fired;
  Format.fprintf fmt "}@]"

let pp protocol fmt trace =
  Format.fprintf fmt "@[<v>%a" (Protocol.pp_config protocol) trace.Engine.init;
  List.iter
    (fun e ->
      Format.fprintf fmt "@,  --%a--> %a" pp_fired e.Engine.fired
        (Protocol.pp_config protocol) e.Engine.after)
    trace.Engine.events;
  Format.fprintf fmt "@]"

