(** A minimal S-expression reader/writer — the carrier syntax for
    {!Text}.  Comments run from [;] to end of line. *)

type t = Atom of string | List of t list

exception Parse_error of { line : int; col : int; msg : string }

(** [pp fmt t] prints with minimal quoting. *)
val pp : Format.formatter -> t -> unit

(** [to_string t] renders compactly. *)
val to_string : t -> string

(** [of_string s] parses exactly one S-expression, rejecting trailing
    input.  Raises {!Parse_error}. *)
val of_string : string -> t
