(** ASCII rendering of the paper's graphical figures.

    Figure 3/5 are page-access scatter plots (page index × processor);
    Figures 2/6/7/8/9 are stacked bar charts.  We render both as text so
    the bench harness regenerates every figure without a display. *)

(** [bar ~width ~max_v v] renders a horizontal bar of '#' proportional to
    [v / max_v] in a field of [width] characters. *)
let bar ~width ~max_v v =
  let filled =
    if max_v <= 0.0 then 0
    else
      let f = int_of_float (Float.round (float_of_int width *. v /. max_v)) in
      max 0 (min width f)
  in
  String.make filled '#' ^ String.make (width - filled) ' '

(** [stacked_bar ~width ~max_v segments] renders contiguous segments, one
    character class per segment, e.g. [("x", 1.2); ("o", 0.4)].
    Segment glyphs must be single characters.

    Each segment's cell count is the difference of {e cumulative}
    rounded endpoints, not an independently rounded width: per-segment
    rounding lets the errors accumulate (three segments of 0.4 cells
    each would render zero cells instead of one, and a bar whose
    segments sum to [max_v] could fall short of [width]).  Cumulative
    rounding makes the total width always equal
    [round (width * total / max_v)]. *)
let stacked_bar ~width ~max_v segments =
  let buf = Buffer.create width in
  let total_used = ref 0 in
  let cum = ref 0.0 in
  List.iter
    (fun (glyph, v) ->
      if String.length glyph <> 1 then invalid_arg "Chart.stacked_bar: glyph must be one char";
      cum := !cum +. v;
      let end_ =
        if max_v <= 0.0 then 0
        else int_of_float (Float.round (float_of_int width *. !cum /. max_v))
      in
      let end_ = max !total_used (min end_ width) in
      Buffer.add_string buf (String.make (end_ - !total_used) glyph.[0]);
      total_used := end_)
    segments;
  Buffer.add_string buf (String.make (width - !total_used) ' ');
  Buffer.contents buf

(* Eight block glyphs, one per level; each is 3 UTF-8 bytes. *)
let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(** [sparkline values] renders one block-glyph cell per value, scaled to
    the series maximum (▁..█).  Zero and negative values render the
    lowest block; an all-zero series is a flat floor. *)
let sparkline values =
  let max_v = Array.fold_left max 0.0 values in
  let buf = Buffer.create (3 * Array.length values) in
  Array.iter
    (fun v ->
      let level =
        if max_v <= 0.0 || v <= 0.0 then 0
        else min 7 (int_of_float (v /. max_v *. 8.0))
      in
      Buffer.add_string buf spark_glyphs.(level))
    values;
  Buffer.contents buf

(** Access-pattern scatter plot (Figures 3 and 5).

    [scatter ~title ~cols ~n_rows points] maps a set of
    [(position, row)] points — position is a page index in virtual or
    coloring order, row is a processor id — onto a [n_rows] × [cols]
    character grid.  Cells touched by exactly one processor print that
    processor's hex digit; cells touched by several print ['*'].
    [x_max] fixes the horizontal scale (e.g. total pages). *)
let scatter ~title ~cols ~n_rows ~x_max points =
  let grid = Array.make_matrix n_rows cols ' ' in
  List.iter
    (fun (pos, row) ->
      if row >= 0 && row < n_rows && pos >= 0 && pos < x_max then begin
        let c = if x_max <= cols then pos else pos * cols / x_max in
        let c = min (cols - 1) c in
        let glyph =
          if row < 10 then Char.chr (Char.code '0' + row)
          else Char.chr (Char.code 'a' + row - 10)
        in
        if grid.(row).(c) = ' ' || grid.(row).(c) = glyph then grid.(row).(c) <- glyph
        else grid.(row).(c) <- '*'
      end)
    points;
  let buf = Buffer.create (n_rows * (cols + 8)) in
  if title <> "" then begin
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  end;
  for r = 0 to n_rows - 1 do
    Buffer.add_string buf (Printf.sprintf "cpu%2d |" r);
    Buffer.add_string buf (String.init cols (fun c -> grid.(r).(c)));
    Buffer.add_string buf "|\n"
  done;
  Buffer.contents buf

(** [density points] is, for each row of the [(position, row)] points
    in ascending row order, [(row, distinct, span)]: the row's distinct
    positions and the width of the range they occupy.  Quantifies the
    sparse-vs-dense contrast between Figures 3 and 5. *)
let density points =
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (pos, row) ->
      Hashtbl.replace rows row (pos :: Option.value ~default:[] (Hashtbl.find_opt rows row)))
    points;
  Hashtbl.fold
    (fun row ps acc ->
      let distinct = List.length (List.sort_uniq compare ps) in
      let span = 1 + List.fold_left max 0 ps - List.fold_left min max_int ps in
      (row, distinct, span) :: acc)
    rows []
  |> List.sort compare
