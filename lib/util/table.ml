(** Plain-text table rendering for benchmark and experiment output.

    The reproduction harness prints every paper table and figure as an
    aligned text table; this module owns the formatting so all output has
    one consistent look. *)

type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reverse order *)
  mutable separators : int list;   (* row counts after which to draw a rule *)
}

(** [create ~title headers] starts a table.  The first column is
    left-aligned, every other column right-aligned. *)
let create ~title headers = { title; headers; rows = []; separators = [] }

(** [add_row t cells] appends a row; short rows are padded with empty
    cells, long rows raise. *)
let add_row t cells =
  let ncols = List.length t.headers in
  let n = List.length cells in
  if n > ncols then invalid_arg "Table.add_row: too many cells";
  let cells = cells @ List.init (ncols - n) (fun _ -> "") in
  t.rows <- cells :: t.rows

(** [add_separator t] draws a horizontal rule after the last added row. *)
let add_separator t = t.separators <- List.length t.rows :: t.separators

(** [fcell ?(prec=2) v] formats a float cell. *)
let fcell ?(prec = 2) v = Printf.sprintf "%.*f" prec v

(** [pcell v] formats a percentage cell. *)
let pcell v = Printf.sprintf "%.1f%%" v

let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else if left then s ^ String.make (width - n) ' '
  else String.make (width - n) ' ' ^ s

(** [render t] produces the table as a string, title first. *)
let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      t.headers
  in
  let buf = Buffer.create 1024 in
  let rule () =
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "-+-";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad ~left:(i = 0) (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  if t.title <> "" then begin
    Buffer.add_string buf t.title;
    Buffer.add_char buf '\n'
  end;
  line t.headers;
  rule ();
  List.iteri
    (fun idx row ->
      line row;
      if List.mem (idx + 1) t.separators then rule ())
    rows;
  Buffer.contents buf

(** [print t] renders to stdout followed by a blank line. *)
let print t =
  print_string (render t);
  print_newline ()
