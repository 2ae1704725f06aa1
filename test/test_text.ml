(* Tests for the S-expression reader and the textual program format. *)

module Sexp = Pcolor.Comp.Sexp
module Text = Pcolor.Comp.Text
module Ir = Pcolor.Comp.Ir

let test_sexp_basics () =
  (match Sexp.of_string "(a b (c 1) )" with
  | Sexp.List [ Atom "a"; Atom "b"; List [ Atom "c"; Atom "1" ] ] -> ()
  | sx -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string sx));
  (match Sexp.of_string "atom" with
  | Sexp.Atom "atom" -> ()
  | _ -> Alcotest.fail "atom parse")

let test_sexp_comments_ws () =
  match Sexp.of_string " ; leading comment\n (x ; mid\n  y)\n; trailing\n" with
  | Sexp.List [ Atom "x"; Atom "y" ] -> ()
  | sx -> Alcotest.failf "unexpected: %s" (Sexp.to_string sx)

let expect_parse_error s =
  try
    ignore (Sexp.of_string s);
    Alcotest.failf "expected parse error on %S" s
  with Sexp.Parse_error _ -> ()

let test_sexp_errors () =
  expect_parse_error "(a";
  expect_parse_error ")";
  expect_parse_error "(a) b"; (* trailing *)
  expect_parse_error ""

let test_sexp_roundtrip () =
  let s = "(program x (array A (dims 4 4)) (steady (p 1)))" in
  let sx = Sexp.of_string s in
  let sx2 = Sexp.of_string (Sexp.to_string sx) in
  Alcotest.(check bool) "roundtrip stable" true (sx = sx2)

let sample_text =
  {|
; a tiny two-array stencil
(program tiny
  (startup 100)
  (array A (dims 8 64))
  (array B (dims 8 64))
  (phase sweep
    (nest relax (parallel even forward) (bounds 6 62)
      (body-instr 7)
      (ref A (coeffs 64 1) (offset 65) read)
      (ref A (coeffs 64 1) (offset 129) read)
      (ref B (coeffs 64 1) (offset 65) write)))
  (steady (sweep 5)))
|}

let test_text_parse () =
  let p = Text.of_string sample_text in
  Alcotest.(check string) "name" "tiny" p.Ir.name;
  Alcotest.(check int) "arrays" 2 (List.length p.arrays);
  Alcotest.(check int) "startup" 100 p.seq_startup_instr;
  let nest = List.hd (List.hd p.phases).nests in
  Alcotest.(check string) "label" "relax" nest.Ir.label;
  Alcotest.(check int) "refs" 3 (List.length nest.refs);
  Alcotest.(check int) "body instr" 7 nest.body_instr;
  Alcotest.(check bool) "parallel" true (match nest.kind with Ir.Parallel _ -> true | _ -> false);
  Alcotest.(check (list (pair int int))) "steady" [ (0, 5) ] p.steady

let expect_format_error s =
  try
    ignore (Text.of_string s);
    Alcotest.failf "expected format error"
  with Text.Format_error _ -> ()

let test_text_errors () =
  expect_format_error "(not-a-program)";
  expect_format_error "(program x (steady (p 1)))"; (* no arrays *)
  expect_format_error "(program x (array A (dims 4)) (phase p) (steady (q 1)))"; (* bad phase ref *)
  expect_format_error
    "(program x (array A (dims 4)) (phase p (nest n sequential (bounds 4) (ref A (coeffs 1) read) (ref B (coeffs 1) read))) (steady (p 1)))";
  (* undeclared array B *)
  expect_format_error
    "(program x (array A (dims 4)) (phase p (nest n sequential (bounds 4) (ref A (coeffs 1)))) (steady (p 1)))"
  (* ref without read/write *)

let test_text_rejects_invalid_ir () =
  (* structurally fine, semantically invalid (coeff arity) — must be
     caught by Ir.check_program *)
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore
         (Text.of_string
            "(program x (array A (dims 4 4)) (phase p (nest n sequential (bounds 4) (ref A (coeffs 4 1) read))) (steady (p 1)))");
       false
     with Invalid_argument _ -> true)

let struct_eq (a : Ir.program) (b : Ir.program) =
  a.name = b.name
  && List.for_all2
       (fun (x : Ir.array_decl) (y : Ir.array_decl) ->
         x.aname = y.aname && x.dims = y.dims && x.elem_size = y.elem_size)
       a.arrays b.arrays
  && a.steady = b.steady
  && List.for_all2
       (fun (px : Ir.phase) (py : Ir.phase) ->
         px.pname = py.pname
         && List.for_all2
              (fun (nx : Ir.nest) (ny : Ir.nest) ->
                nx.label = ny.label && nx.kind = ny.kind && nx.bounds = ny.bounds
                && nx.body_instr = ny.body_instr && nx.tiled = ny.tiled
                && nx.extra_onchip_stall = ny.extra_onchip_stall
                && List.for_all2
                     (fun (rx : Ir.ref_) (ry : Ir.ref_) ->
                       rx.array.aname = ry.array.aname && rx.coeffs = ry.coeffs
                       && rx.offset = ry.offset && rx.is_write = ry.is_write)
                     nx.refs ny.refs)
              px.nests py.nests)
       a.phases b.phases

let test_text_roundtrip_all_benchmarks () =
  List.iter
    (fun (d : Pcolor.Workloads.Spec.descriptor) ->
      let p = d.build ~scale:16 () in
      let p' = Text.of_string (Text.to_string p) in
      Alcotest.(check bool) (d.name ^ " roundtrips") true (struct_eq p p'))
    Pcolor.Workloads.Spec.all

let test_text_runs_end_to_end () =
  (* a parsed program must run through the full pipeline *)
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let module Run = Pcolor.Runtime.Run in
  let s =
    {
      (Run.default_setup ~cfg
         ~make_program:(fun () -> Text.of_string sample_text)
         ~policy:Run.cdpc)
      with
      check_bounds = true;
    }
  in
  let r = (Run.run s).report in
  Alcotest.(check bool) "ran" true (r.instructions > 0.0)

let suite =
  [
    ( "text",
      [
        Alcotest.test_case "sexp basics" `Quick test_sexp_basics;
        Alcotest.test_case "sexp comments" `Quick test_sexp_comments_ws;
        Alcotest.test_case "sexp errors" `Quick test_sexp_errors;
        Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
        Alcotest.test_case "text parse" `Quick test_text_parse;
        Alcotest.test_case "text errors" `Quick test_text_errors;
        Alcotest.test_case "text rejects invalid IR" `Quick test_text_rejects_invalid_ir;
        Alcotest.test_case "text roundtrip (all ten)" `Quick test_text_roundtrip_all_benchmarks;
        Alcotest.test_case "text runs end-to-end" `Quick test_text_runs_end_to_end;
      ] );
  ]
