(** ASCII rendering of the paper's graphical figures: bars for the
    stacked-bar panels, scatter grids for the Figure 3/5 access-pattern
    plots. *)

(** [bar ~width ~max_v v] is a horizontal '#' bar proportional to
    [v / max_v]. *)
val bar : width:int -> max_v:float -> float -> string

(** [stacked_bar ~width ~max_v segments] renders contiguous
    single-character segments, e.g. [[("x", 1.2); ("o", 0.4)]].
    Segment widths are differences of cumulative rounded endpoints, so
    they always sum to [round (width * total / max_v)] — rounding error
    never accumulates.  Raises [Invalid_argument] on multi-character
    glyphs. *)
val stacked_bar : width:int -> max_v:float -> (string * float) list -> string

(** [sparkline values] renders one Unicode block glyph (▁..█) per
    value, scaled to the series maximum; non-positive values and
    all-zero series render the lowest block. *)
val sparkline : float array -> string

(** [scatter ~title ~cols ~n_rows ~x_max points] maps
    [(position, row)] points onto a character grid; single-processor
    cells print the processor's hex digit, contested cells ['*']. *)
val scatter : title:string -> cols:int -> n_rows:int -> x_max:int -> (int * int) list -> string

(** [density points] is, per row of the [(position, row)] points in
    ascending row order, [(row, distinct, span)]: the row's distinct
    positions and the width of the range they occupy. *)
val density : (int * int) list -> (int * int * int) list
