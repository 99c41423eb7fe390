type stats = { explored : int; edges : int; complete : bool }

type verdict = Converges | Counterexample of int | Unknown

(* The exploration: codes indexed densely in discovery order, which is
   also the processing order, so the next index to expand is the
   number of rows already packed. Every registration, the initial
   configurations included, counts against [max_states]; the first one
   past it stops the exploration, and [edges] counts the rows packed by
   then. A complete exploration also returns its sub-system: the codes
   by index and the successor relation as a CSR over indexes, each row
   the sorted, deduplicated {!Statespace.successors} (the code and
   offset buffers are handed over as they are, longer than they need
   to be; the targets are copied once into an exact-size edge
   array). *)
let explore ?(max_states = 1_000_000) space cls ~inits =
  let index_of = Hashtbl.create 1024 in
  let codes = Growbuf.create 1024 0 in
  let register code =
    match Hashtbl.find_opt index_of code with
    | Some idx -> idx
    | None ->
      if codes.len >= max_states then raise Exit;
      let idx = codes.len in
      Hashtbl.add index_of code idx;
      Growbuf.push_int codes code;
      idx
  in
  let off = Growbuf.create 1024 0 and dst = Growbuf.create 4096 0 in
  Growbuf.push_int off 0;
  let complete =
    try
      List.iter (fun cfg -> ignore (register (Statespace.code space cfg))) inits;
      while off.len <= codes.len do
        let idx = off.len - 1 in
        (* Poll on the first row too: a cancelled exploration must stop
           even when it would stay under 256 states. *)
        if idx land 255 = 0 then Cancel.poll ();
        List.iter
          (fun code' -> Growbuf.push_int dst (register code'))
          (Statespace.successors space cls codes.data.(idx));
        Growbuf.push_int off dst.len
      done;
      true
    with Exit -> false
  in
  let n = codes.len in
  let stats = { explored = n; edges = off.data.(off.len - 1); complete } in
  if not complete then (stats, None)
  else
    let dst = Digraph.edges_of_buffers ~nodes:n [ dst ] in
    (stats, Some (codes.data, { Digraph.n; off = off.data; rows = Edges dst }))

let possible_verdict codes graph legitimate =
  match Digraph.first_unreaching graph ~target:legitimate with
  | None -> Converges
  | Some idx -> Counterexample codes.(idx)

let certain_verdict codes (graph : Digraph.t) legitimate =
  let dead_end idx = (not legitimate.(idx)) && graph.off.(idx) = graph.off.(idx + 1) in
  match Seq.find dead_end (Seq.init graph.n Fun.id) with
  | Some idx -> Counterexample codes.(idx)
  | None -> (
    match Digraph.cycle_outside graph ~inside:legitimate with
    | Some cycle -> Counterexample codes.(List.hd cycle)
    | None -> Converges)

type analysis = { possible : verdict; certain : verdict; stats : stats }

let analyze ?max_states space cls spec ~inits =
  match explore ?max_states space cls ~inits with
  | stats, None -> { possible = Unknown; certain = Unknown; stats }
  | stats, Some (codes, graph) ->
    let legitimate =
      Array.init stats.explored (fun idx ->
          spec.Spec.legitimate (Statespace.config space codes.(idx)))
    in
    { possible = possible_verdict codes graph legitimate;
      certain = certain_verdict codes graph legitimate; stats }
