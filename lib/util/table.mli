(** Plain-text table rendering — one consistent look for all benchmark
    and experiment output. *)

type t

(** [create ~title headers] starts a table: the first column
    left-aligned, every other column right-aligned. *)
val create : title:string -> string list -> t

(** [add_row t cells] appends a row (short rows padded; long rows
    raise). *)
val add_row : t -> string list -> unit

(** [add_separator t] draws a rule after the last added row. *)
val add_separator : t -> unit

(** Cell formatters. *)
val fcell : ?prec:int -> float -> string

val pcell : float -> string

(** [render t] produces the table as a string, title first. *)
val render : t -> string

(** [print t] renders to stdout followed by a blank line. *)
val print : t -> unit
