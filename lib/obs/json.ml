(** Minimal JSON: construction, compact/pretty printing, and a strict
    validating parser (tests use it to prove artifacts are well-formed;
    the container image ships no JSON library). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* The escape sequence of a character [add_escaped] cannot copy as is. *)
let add_escape buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

(* Each run of characters that need no escape is copied in one call,
   so a plain string is a single [add_substring]. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let clean = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c < ' ' || c = '"' || c = '\\' then begin
      Buffer.add_substring buf s !clean (i - !clean);
      add_escape buf c;
      clean := i + 1
    end
  done;
  Buffer.add_substring buf s !clean (String.length s - !clean);
  Buffer.add_char buf '"'

(* Decimal digits of [n <= 0], most significant first.  Working on the
   non-positive side covers [min_int], whose negation overflows. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

(* [string_of_int n], written straight into [buf]. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

(* %.12g round-trips every value the simulator reports and never emits a
   bare trailing dot; non-finite values have no JSON spelling.  An
   integral value below 1e15 prints as "%.1f" would: its digits, then
   ".0" (and "-0.0" for negative zero). *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f && f = 0. then Buffer.add_char buf '-';
    add_int buf (int_of_float f);
    Buffer.add_string buf ".0"
  end
  else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
  else Buffer.add_string buf "null"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* Indentation is cut from one shared run of spaces. *)
let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    Buffer.add_string buf spaces;
    add_spaces buf (n - String.length spaces)
  end

let pretty v =
  let buf = Buffer.create 1024 in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as v -> to_buffer buf v
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr vs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          add_spaces buf (indent + 2);
          go (indent + 2) v)
        vs;
      Buffer.add_char buf '\n';
      add_spaces buf indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          add_spaces buf (indent + 2);
          add_escaped buf k;
          Buffer.add_string buf ": ";
          go (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      add_spaces buf indent;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- validating parser ---- *)

exception Bad of int * string

(* Encode a Unicode scalar from a \uXXXX escape as UTF-8.  Artifacts we
   emit are ASCII, so this path only matters for foreign inputs. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

(* Integers of at most this many digits cannot overflow an OCaml int
   and are accumulated in place; longer ones go through
   [int_of_string_opt], which also finds the ones beyond the int
   range. *)
let max_inline_digits = 18

(* The parser reads [s] in place: [!pos] is the next character, and
   every read of [s.[!pos]] is guarded by [!pos < n]. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at () = String.unsafe_get s !pos in
  let looking_at c = !pos < n && at () = c in
  let expect c = if looking_at c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let skip_ws () =
    while !pos < n && (match at () with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let literal word =
    for i = 0 to String.length word - 1 do
      if looking_at word.[i] then incr pos else fail ("bad literal " ^ word)
    done
  in
  let hex_digit () =
    if !pos >= n then fail "bad \\u escape";
    let d =
      match at () with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    incr pos;
    d
  in
  (* the rest of a string from its first escape or control character,
     decoded onto [buf] *)
  let escaped_tail buf =
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      match at () with
      | '"' ->
        incr pos;
        fin := true
      | '\\' -> (
        incr pos;
        if !pos >= n then fail "bad escape";
        match at () with
        | ('"' | '\\' | '/') as c ->
          Buffer.add_char buf c;
          incr pos
        | 'b' -> Buffer.add_char buf '\b'; incr pos
        | 'f' -> Buffer.add_char buf '\012'; incr pos
        | 'n' -> Buffer.add_char buf '\n'; incr pos
        | 'r' -> Buffer.add_char buf '\r'; incr pos
        | 't' -> Buffer.add_char buf '\t'; incr pos
        | 'u' ->
          incr pos;
          let code = ref 0 in
          for _ = 1 to 4 do
            code := (!code * 16) + hex_digit ()
          done;
          add_utf8 buf !code
        | _ -> fail "bad escape")
      | c when c < ' ' -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        incr pos
    done;
    Buffer.contents buf
  in
  (* a string with no escape is one [String.sub] of the input *)
  let string_ () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      &&
      let c = at () in
      c <> '"' && c <> '\\' && c >= ' '
    do
      incr pos
    done;
    if looking_at '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (!pos - start + 16) in
      Buffer.add_substring buf s start (!pos - start);
      escaped_tail buf
    end
  in
  let digits () =
    let start = !pos in
    while !pos < n && match at () with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected digit"
  in
  let number () =
    let start = !pos in
    let negative = looking_at '-' in
    if negative then incr pos;
    (* JSON forbids leading zeros: "0" is fine, "01" is not *)
    let int_start = !pos in
    digits ();
    let int_digits = !pos - int_start in
    if int_digits > 1 && s.[int_start] = '0' then fail "leading zero";
    let fractional = ref false in
    if looking_at '.' then begin
      fractional := true;
      incr pos;
      digits ()
    end;
    if looking_at 'e' || looking_at 'E' then begin
      fractional := true;
      incr pos;
      if looking_at '+' || looking_at '-' then incr pos;
      digits ()
    end;
    if !fractional then Float (float_of_string (String.sub s start (!pos - start)))
    else if int_digits <= max_inline_digits then begin
      let v = ref 0 in
      for i = int_start to !pos - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - Char.code '0')
      done;
      Int (if negative then - !v else !v)
    end
    else
      let text = String.sub s start (!pos - start) in
      (* integers beyond OCaml's int range degrade to float *)
      match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match at () with
    | '"' -> Str (string_ ())
    | 't' -> literal "true"; Bool true
    | 'f' -> literal "false"; Bool false
    | 'n' -> literal "null"; Null
    | '-' | '0' .. '9' -> number ()
    | '[' ->
      incr pos;
      skip_ws ();
      if looking_at ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [ value () ] in
        skip_ws ();
        while looking_at ',' do
          incr pos;
          items := value () :: !items;
          skip_ws ()
        done;
        expect ']';
        Arr (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if looking_at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let members = ref [ member () ] in
        skip_ws ();
        while looking_at ',' do
          incr pos;
          skip_ws ();
          members := member () :: !members;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !members)
      end
    | c -> fail (Printf.sprintf "unexpected character %c" c)
  and member () =
    skip_ws ();
    let key = string_ () in
    skip_ws ();
    expect ':';
    (key, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (p, msg) -> Error (Printf.sprintf "offset %d: %s" p msg)

let check s = Result.map ignore (parse s)

(* ---- accessors (artifact readers) ---- *)

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
