(** A minimal S-expression reader/writer — the carrier syntax for the
    textual program format ({!Parse}).  No external dependencies; line
    and column tracking for error messages; comments run from [;] to end
    of line. *)

type t = Atom of string | List of t list

exception Parse_error of { line : int; col : int; msg : string }

let error ~line ~col msg = raise (Parse_error { line; col; msg })

(** [pp fmt t] prints with minimal quoting (atoms are written verbatim;
    the program format never needs spaces inside atoms). *)
let rec pp fmt = function
  | Atom s -> Format.pp_print_string fmt s
  | List items ->
    Format.fprintf fmt "@[<hov 1>(";
    List.iteri
      (fun i item ->
        if i > 0 then Format.fprintf fmt "@ ";
        pp fmt item)
      items;
    Format.fprintf fmt ")@]"

(** [to_string t] renders compactly. *)
let to_string t = Format.asprintf "%a" pp t

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek lx with
  | Some '\n' ->
    lx.line <- lx.line + 1;
    lx.col <- 1
  | Some _ -> lx.col <- lx.col + 1
  | None -> ());
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance lx;
    skip_ws lx
  | Some ';' ->
    let rec to_eol () =
      match peek lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_ws lx
  | _ -> ()

let is_atom_char = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
  | _ -> true

let rec parse_one lx =
  skip_ws lx;
  match peek lx with
  | None -> error ~line:lx.line ~col:lx.col "unexpected end of input"
  | Some '(' ->
    advance lx;
    let items = ref [] in
    let rec loop () =
      skip_ws lx;
      match peek lx with
      | Some ')' ->
        advance lx;
        List (List.rev !items)
      | None -> error ~line:lx.line ~col:lx.col "unclosed parenthesis"
      | Some _ ->
        items := parse_one lx :: !items;
        loop ()
    in
    loop ()
  | Some ')' -> error ~line:lx.line ~col:lx.col "unexpected ')'"
  | Some _ ->
    let start = lx.pos in
    while (match peek lx with Some c when is_atom_char c -> true | _ -> false) do
      advance lx
    done;
    Atom (String.sub lx.src start (lx.pos - start))

(** [of_string s] parses exactly one S-expression, rejecting trailing
    garbage.  Raises {!Parse_error}. *)
let of_string s =
  let lx = { src = s; pos = 0; line = 1; col = 1 } in
  let v = parse_one lx in
  skip_ws lx;
  (match peek lx with
  | Some _ -> error ~line:lx.line ~col:lx.col "trailing input after expression"
  | None -> ());
  v
