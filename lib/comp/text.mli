(** Textual program format: read and write {!Ir.program} values as
    S-expressions so experiments can be defined without OCaml (the
    CLI's [run-file] command).  See the module implementation or
    [examples/programs/] for the grammar. *)

exception Format_error of string

(** [of_string s] parses a full program text ({!Sexp.Parse_error} /
    {!Format_error}). *)
val of_string : string -> Ir.program

(** [of_file path] reads and parses a program file. *)
val of_file : string -> Ir.program

(** [to_string p] renders text that {!of_string} reads back to a
    structurally equal program. *)
val to_string : Ir.program -> string
