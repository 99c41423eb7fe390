type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns =
  if columns = [] then invalid_arg "Report.create: no columns";
  { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Report.add_row: column count mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun widths row -> List.map2 (fun w cell -> max w (String.length cell)) widths row)
      (List.map String.length t.columns)
      rows
  in
  let pad width cell = cell ^ String.make (width - String.length cell) ' ' in
  let line row =
    String.concat "  " (List.map2 pad widths row) |> String.trim |> fun s ->
    (* Re-pad: trim removed trailing spaces only; leading alignment is
       preserved because the first column starts at position 0. *)
    s
  in
  let separator = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n"
    (Printf.sprintf "== %s" t.title :: line t.columns :: separator :: List.map line rows)

let print t =
  print_string (render t);
  print_newline ();
  print_newline ()

let to_markdown t =
  let escape cell = String.concat "\\|" (String.split_on_char '|' cell) in
  let line row = "| " ^ String.concat " | " (List.map escape row) ^ " |" in
  let rule = "|" ^ String.concat "|" (List.map (fun _ -> "---") t.columns) ^ "|" in
  String.concat "\n"
    (("### " ^ t.title) :: "" :: line t.columns :: rule
    :: List.rev_map line t.rows)

let cell_int = string_of_int
let cell_float ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v
let cell_bool b = if b then "yes" else "no"
