module Graph = Stabgraph.Graph

type program = Ast.program

let parse source =
  try
    let program = Parser.parse source in
    Typecheck.check program;
    Ok program
  with
  | Lexer.Error (message, pos) | Parser.Error (message, pos) | Typecheck.Error (message, pos)
    ->
    Error (Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.column message)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> parse source
  | exception Sys_error message -> Error message

let name (program : program) = program.Ast.name

let var_index (program : program) name =
  let rec go i = function
    | [] -> raise Not_found
    | (n, _, _) :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 program.Ast.vars

(* --- evaluation --- *)

type env = {
  program : program;
  graph : Graph.t;
  cfg : int array array;  (** full configuration: cfg.(pid).(var slot) *)
  pid : int;  (** the executing process *)
  neighbors : (string * int) list;  (** binder -> neighbor global id *)
  ints : (string * int) list;  (** binder -> value *)
}

let eval_fail pos fmt =
  Printf.ksprintf
    (fun m -> failwith (Printf.sprintf "gcp:%d:%d: %s" pos.Ast.line pos.Ast.column m))
    fmt

(* Booleans are 0/1; the typechecker guarantees consistent usage. *)
let rec eval env (e : Ast.expr) =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.Int n -> n
  | Ast.Bool b -> Bool.to_int b
  | Ast.Degree -> Graph.degree env.graph env.pid
  | Ast.Var name -> (
    match List.assoc_opt name env.ints with
    | Some v -> v
    | None -> env.cfg.(env.pid).(var_index env.program name))
  | Ast.Neighbor_var (binder, var) ->
    let q = List.assoc binder env.neighbors in
    env.cfg.(q).(var_index env.program var)
  | Ast.Indexed_var (index, var) ->
    let k = eval env index in
    if k < 0 || k >= Graph.degree env.graph env.pid then
      eval_fail pos "neighbor index %d out of range (degree %d)" k
        (Graph.degree env.graph env.pid)
    else env.cfg.(Graph.neighbor env.graph env.pid k).(var_index env.program var)
  | Ast.Is_me (binder, var) ->
    let q = List.assoc binder env.neighbors in
    let k = env.cfg.(q).(var_index env.program var) in
    if k < 0 || k >= Graph.degree env.graph q then 0
    else Bool.to_int (Graph.neighbor env.graph q k = env.pid)
  | Ast.Binop (op, l, r) -> (
    let lv () = eval env l and rv () = eval env r in
    match op with
    | Ast.Add -> lv () + rv ()
    | Ast.Sub -> lv () - rv ()
    | Ast.Mul -> lv () * rv ()
    | Ast.Div ->
      let d = rv () in
      if d = 0 then eval_fail pos "division by zero" else lv () / d
    | Ast.Mod ->
      let d = rv () in
      if d = 0 then eval_fail pos "modulo by zero"
      else ((lv () mod d) + abs d) mod abs d
    | Ast.Eq -> Bool.to_int (lv () = rv ())
    | Ast.Neq -> Bool.to_int (lv () <> rv ())
    | Ast.Lt -> Bool.to_int (lv () < rv ())
    | Ast.Le -> Bool.to_int (lv () <= rv ())
    | Ast.Gt -> Bool.to_int (lv () > rv ())
    | Ast.Ge -> Bool.to_int (lv () >= rv ())
    | Ast.And -> if lv () = 0 then 0 else rv ()
    | Ast.Or -> if lv () = 1 then 1 else rv ())
  | Ast.Not body -> 1 - eval env body
  | Ast.If (cond, then_, else_) -> if eval env cond = 1 then eval env then_ else eval env else_
  | Ast.Forall (binder, body) ->
    Bool.to_int
      (Array.for_all
         (fun q -> eval { env with neighbors = (binder, q) :: env.neighbors } body = 1)
         (Graph.neighbors env.graph env.pid))
  | Ast.Exists (binder, body) ->
    Bool.to_int
      (Array.exists
         (fun q -> eval { env with neighbors = (binder, q) :: env.neighbors } body = 1)
         (Graph.neighbors env.graph env.pid))
  | Ast.Count (binder, body) ->
    Array.fold_left
      (fun acc q ->
        acc + eval { env with neighbors = (binder, q) :: env.neighbors } body)
      0
      (Graph.neighbors env.graph env.pid)
  | Ast.Minval (binder, body) | Ast.Maxval (binder, body) ->
    let neighbors = Graph.neighbors env.graph env.pid in
    if Array.length neighbors = 0 then
      eval_fail pos "min/max over the neighbors of a degree-0 process"
    else begin
      let combine =
        match e.Ast.desc with Ast.Minval _ -> min | _ -> max
      in
      let values =
        Array.map
          (fun q -> eval { env with neighbors = (binder, q) :: env.neighbors } body)
          neighbors
      in
      Array.fold_left combine values.(0) values
    end
  | Ast.First (binder, low, high, body) ->
    let lo = eval env low and hi = eval env high in
    let rec go v =
      if v > hi then eval_fail pos "'first %s in %d .. %d' found no match" binder lo hi
      else if eval { env with ints = (binder, v) :: env.ints } body = 1 then v
      else go (v + 1)
    in
    go lo

(* --- instantiation --- *)

let domain_values (program : program) graph pid (domain : Ast.domain) pos =
  match domain with
  | Ast.Bool_domain -> Ok [ 0; 1 ]
  | Ast.Range (low, high) ->
    let env = { program; graph; cfg = [||]; pid; neighbors = []; ints = [] } in
    let lo = eval env low and hi = eval env high in
    if lo > hi then
      Error
        (Printf.sprintf "%d:%d: empty domain %d .. %d at process %d" pos.Ast.line
           pos.Ast.column lo hi pid)
    else Ok (List.init (hi - lo + 1) (fun i -> lo + i))

let pp_state (program : program) fmt state =
  List.iteri
    (fun i (name, domain, _) ->
      if i > 0 then Format.pp_print_char fmt ',';
      match domain with
      | Ast.Bool_domain -> Format.fprintf fmt "%s=%b" name (state.(i) = 1)
      | Ast.Range _ -> Format.fprintf fmt "%s=%d" name state.(i))
    program.Ast.vars

let instantiate (program : program) graph =
  (* Precompute per-process domains, failing on empty ones. *)
  let n = Graph.size graph in
  let exception Bad of string in
  match
    Array.init n (fun pid ->
        List.map
          (fun (_, domain, pos) ->
            match domain_values program graph pid domain pos with
            | Ok values -> values
            | Error message -> raise (Bad message))
          program.Ast.vars)
  with
  | exception Bad message -> Error message
  | domains ->
    let env_of cfg pid = { program; graph; cfg; pid; neighbors = []; ints = [] } in
    let to_action (a : Ast.action) : int array Stabcore.Protocol.action =
      {
        Stabcore.Protocol.label = a.Ast.label;
        guard = (fun cfg pid -> eval (env_of cfg pid) a.Ast.guard = 1);
        result =
          (fun cfg pid ->
            let env = env_of cfg pid in
            let next = Array.copy cfg.(pid) in
            List.iter
              (fun (target, value) ->
                let slot = var_index program target in
                let v = eval env value in
                let allowed = List.nth domains.(pid) slot in
                if not (List.mem v allowed) then
                  eval_fail value.Ast.pos
                    "action '%s' assigns %d to '%s', outside its domain at process %d"
                    a.Ast.label v target pid;
                next.(slot) <- v)
              a.Ast.assignments;
            [ (next, 1.0) ]);
      }
    in
    let protocol : int array Stabcore.Protocol.t =
      {
        Stabcore.Protocol.name = program.Ast.name;
        graph;
        domain =
          (fun pid ->
            (* Cartesian product of the variable domains, first variable
               varying slowest so states read naturally. *)
            List.fold_left
              (fun acc values ->
                List.concat_map
                  (fun prefix -> List.map (fun v -> prefix @ [ v ]) values)
                  acc)
              [ [] ] domains.(pid)
            |> List.map Array.of_list);
        actions = List.map to_action program.Ast.actions;
        equal = (fun a b -> a = b);
        pp = pp_state program;
        randomized = false;
      }
    in
    let spec =
      match program.Ast.legitimate with
      | Ast.Terminal ->
        Stabcore.Spec.terminal_spec ~name:(program.Ast.name ^ "-terminal") protocol
      | Ast.All predicate ->
        Stabcore.Spec.make ~name:(program.Ast.name ^ "-all") (fun cfg ->
            let ok = ref true in
            Graph.iter_nodes
              (fun pid -> if eval (env_of cfg pid) predicate <> 1 then ok := false)
              graph;
            !ok)
    in
    Ok (protocol, spec)
