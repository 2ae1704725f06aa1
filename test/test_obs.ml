(* Observability subsystem tests:

   1. Json printer/validator unit coverage: the committed golden
      artifacts reprint byte for byte, random values survive both
      printers and the parser, and rejected inputs keep their message
      and offset;
   2. metrics registry semantics — counters, gauges, histogram bucket
      boundaries, kind collisions, merge;
   3. the determinism contract: metrics snapshots are identical for
      jobs=1 and jobs=4, and attaching observability leaves the
      rendered report byte-identical;
   4. trace emission: every JSONL line parses, and B/E span events
      balance per (pid, tid);
   5. PCOLOR_JOBS validation (both the accept and reject paths);
   6. run artifacts parse and carry the schema version. *)

module Json = Pcolor.Obs.Json
module Metrics = Pcolor.Obs.Metrics
module Trace = Pcolor.Obs.Trace
module Ctx = Pcolor.Obs.Ctx
module Provenance = Pcolor.Obs.Provenance
module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report
module Pool = Pcolor.Util.Pool

let render r = Format.asprintf "%a" Report.pp r

(* ---- 1. Json ---- *)

let test_json_print () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.Arr [ Json.Float 1.5; Json.Bool true; Json.Null ]);
        ("c\"d", Json.Str "x\ny");
      ]
  in
  Alcotest.(check string)
    "compact form" {|{"a":1,"b":[1.5,true,null],"c\"d":"x\ny"}|} (Json.to_string j)

let test_json_check () =
  let ok s = Alcotest.(check bool) ("accepts " ^ s) true (Json.check s = Ok ()) in
  let bad s = Alcotest.(check bool) ("rejects " ^ s) true (Result.is_error (Json.check s)) in
  ok {|{"a":[1,2.5,-3e2],"b":"A\\"}|};
  ok "null";
  ok "[]";
  bad "{";
  bad {|{"a":1,}|};
  bad {|{"a":1} trailing|};
  bad {|"unterminated|};
  bad "01"

let test_json_roundtrip () =
  (* every printer output must satisfy the validator, including the
     float special cases *)
  List.iter
    (fun j -> Alcotest.(check bool) "printed JSON validates" true (Json.check (Json.to_string j) = Ok ()))
    [
      Json.Float 3.0;
      Json.Float 0.1;
      Json.Float (-1e30);
      Json.Float Float.nan;
      Json.Float Float.infinity;
      Json.Obj [ ("nested", Json.Arr [ Json.Obj []; Json.Arr [] ]) ];
    ]

(* Parsing a committed golden artifact and pretty-printing it gives the
   file back, apart from the one newline the writer appends. *)
let test_json_golden_reprint () =
  let dir = "../golden" in
  let files = Sys.readdir dir |> Array.to_list |> List.filter (String.ends_with ~suffix:".json") in
  Alcotest.(check bool) "golden artifacts found" true (files <> []);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      match Json.parse text with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok v -> Alcotest.(check string) f text (Json.pretty v ^ "\n"))
    (List.sort compare files)

(* JSON values the printers write exactly: every int (min_int, 18- and
   19-digit ones included), floats whose %.12g or %.1f spelling is
   exact, and strings of any bytes (control characters print as \u
   escapes). *)
let gen_json =
  QCheck.Gen.(
    let int_ =
      oneof
        [
          oneofl [ min_int; max_int; 0; -1; 999_999_999_999_999_999; -999_999_999_999_999_999;
                   1_000_000_000_000_000_000; -1_234_567_890_123_456_789 ];
          int;
          small_signed_int;
        ]
    in
    let float_ =
      oneof
        [
          map (fun i -> Float.of_int i) (int_range (-1_000_000) 1_000_000);
          oneofl [ -0.0; 0.5; -1e30; 1e15; 12345678901.5 ];
          map (fun f -> float_of_string (Printf.sprintf "%.9g" f)) (float_range (-1e6) 1e6);
        ]
    in
    let string_ = string_size ~gen:char (int_bound 12) in
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int_;
                 map (fun f -> Json.Float f) float_;
                 map (fun s -> Json.Str s) string_;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair string_ (self (n / 4)))) );
               ]))

let test_json_parse_inverts_printers =
  QCheck.Test.make ~name:"parse inverts to_string and pretty" ~count:500 (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v && Json.parse (Json.pretty v) = Ok v)

(* Integral floats print as "%.1f" does, negative zero included;
   integers at the edges of the int range parse as [Int] or degrade to
   [Float] as [int_of_string] decides; and nesting deeper than the
   shared run of indentation spaces still indents by two per level. *)
let test_json_edges () =
  List.iter
    (fun f -> Alcotest.(check string) "integral float" (Printf.sprintf "%.1f" f) (Json.to_string (Json.Float f)))
    [ -0.0; 0.0; 3.0; -5.0; 999_999_999_999_999.; -123456789012345. ];
  List.iter
    (fun (text, expected) ->
      Alcotest.(check bool) text true (Json.parse text = Ok expected))
    [
      ("4611686018427387903", Json.Int max_int);
      ("-4611686018427387904", Json.Int min_int);
      ("4611686018427387904", Json.Float 4611686018427387904.);
      ("9999999999999999999", Json.Float 1e19);
      ("-999999999999999999", Json.Int (-999_999_999_999_999_999));
      ("-0", Json.Int 0);
    ];
  let depth = 40 in
  let rec nest d = if d = 0 then Json.Int 1 else Json.Arr [ nest (d - 1) ] in
  let expected =
    String.concat "" (List.init depth (fun d -> String.make (2 * d) ' ' ^ "[\n"))
    ^ String.make (2 * depth) ' ' ^ "1\n"
    ^ String.concat "\n" (List.init depth (fun d -> String.make (2 * (depth - 1 - d)) ' ' ^ "]"))
    ^ "\n"
  in
  Alcotest.(check string) "deep nesting" expected (Json.pretty (nest depth))

(* Each rejected input keeps its message and the offset it names. *)
let test_json_rejections () =
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "%S parsed" input
      | Error e -> Alcotest.(check string) (Printf.sprintf "%S" input) expected e)
    [
      ("01", "offset 2: leading zero");
      ("-012", "offset 4: leading zero");
      ("[1, 00]", "offset 6: leading zero");
      ("\"a\001b\"", "offset 2: control character in string");
      ("\"tab\there\"", "offset 4: control character in string");
      ("\"\\x\"", "offset 2: bad escape");
      ("\"\\u12g4\"", "offset 5: bad \\u escape");
      ("\"ab\\", "offset 4: bad escape");
      ("\"abc", "offset 4: unterminated string");
      ("{\"a\":1} x", "offset 8: trailing garbage");
      ("[1,2", "offset 4: expected ]");
      ("{\"a\" 1}", "offset 5: expected :");
      ("{1:2}", "offset 1: expected \"");
      ("[1,]", "offset 3: unexpected character ]");
      ("tru", "offset 3: bad literal true");
      ("", "offset 0: unexpected end of input");
      ("1.", "offset 2: expected digit");
      ("-", "offset 1: expected digit");
      ("1e", "offset 2: expected digit");
    ]

(* ---- 2. metrics registry ---- *)

let test_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Metrics.incr c;
  Metrics.add c 41;
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7;
  Alcotest.(check bool) "snapshot values" true
    (Metrics.snapshot reg = [ ("c", Metrics.Counter 42); ("g", Metrics.Gauge 7) ])

let test_kind_collision () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.check_raises "gauge under a counter name"
    (Invalid_argument "Metrics: x already registered with another kind") (fun () ->
      ignore (Metrics.gauge reg "x"))

let test_histogram_boundaries () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" ~bounds:[| 10; 100 |] in
  (* v <= bound lands in that bucket: exactly-at-bound goes low *)
  List.iter (Metrics.observe h) [ 0; 10; 11; 100; 101; 1_000_000 ];
  match Metrics.snapshot reg with
  | [ ("h", Metrics.Histogram { bounds; counts; sum; count }) ] ->
    Alcotest.(check (array int)) "bounds" [| 10; 100 |] bounds;
    Alcotest.(check (array int)) "counts (<=10, <=100, overflow)" [| 2; 2; 2 |] counts;
    Alcotest.(check int) "count" 6 count;
    Alcotest.(check int) "sum" (0 + 10 + 11 + 100 + 101 + 1_000_000) sum
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_merge () =
  let mk n =
    let reg = Metrics.create () in
    Metrics.add (Metrics.counter reg "c") n;
    Metrics.observe (Metrics.histogram reg "h" ~bounds:[| 5 |]) n;
    Metrics.snapshot reg
  in
  match Metrics.merge [ mk 3; mk 10 ] with
  | [ ("c", Metrics.Counter 13); ("h", Metrics.Histogram { counts = [| 1; 1 |]; sum = 13; count = 2; _ }) ]
    -> ()
  | _ -> Alcotest.fail "merge did not sum element-wise"

(* ---- 3. determinism contract ---- *)

let tiny_setup ?(policy = Run.Page_coloring) ?(n_cpus = 2) () =
  let cfg = Helpers.tiny_cfg ~n_cpus () in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy) with
    check_bounds = true;
  }

let batch_setups () =
  List.concat_map
    (fun policy -> List.map (fun n_cpus -> tiny_setup ~policy ~n_cpus ()) [ 1; 2 ])
    [ Run.Page_coloring; Run.Bin_hopping; Run.Random_colors ]

(* Run the batch with a fresh per-run registry each and merge: the
   merged snapshot must not depend on the pool width. *)
let batch_metrics ~jobs =
  Pool.map ~jobs
    (fun s ->
      let reg = Metrics.create () in
      let o = Run.run { s with obs = Ctx.create ~metrics:reg ~sample:true () } in
      Option.get o.Run.metrics)
    (batch_setups ())
  |> Metrics.merge

let test_metrics_jobs_identical () =
  let seq = batch_metrics ~jobs:1 and par = batch_metrics ~jobs:4 in
  Alcotest.(check bool) "merged snapshots equal for jobs=1 and jobs=4" true
    (seq = par)

let test_metrics_nonempty () =
  let snap = batch_metrics ~jobs:1 in
  let has n = List.mem_assoc n snap in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (has n))
    [
      "memsim.instructions"; "memsim.l1_hits"; "memsim.tlb_misses"; "vm.page_faults";
      "vm.free_list.depth"; "runtime.phase_occurrences"; "memsim.sampled.miss_stall_cycles";
    ];
  match List.assoc "memsim.instructions" snap with
  | Metrics.Counter n -> Alcotest.(check bool) "instructions counted" true (n > 0)
  | _ -> Alcotest.fail "memsim.instructions is not a counter"

let test_obs_off_identical () =
  let plain = render (Run.run (tiny_setup ())).Run.report in
  let path = Filename.temp_file "pcolor_obs" ".jsonl" in
  let sink = Trace.open_sink ~path in
  let obs = Ctx.create ~metrics:(Metrics.create ()) ~trace:(Trace.buffer sink) ~sample:true () in
  let instrumented = render (Run.run { (tiny_setup ()) with obs }).Run.report in
  Trace.close sink;
  Sys.remove path;
  Alcotest.(check string) "report identical with observability on" plain instrumented

(* ---- 4. trace emission ---- *)

(* Minimal field scraping: our own emitter writes one object per line
   with fixed field order, so substring extraction is reliable here
   (the full parse is covered by Json.check). *)
let field_int line name =
  let pat = "\"" ^ name ^ "\":" in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then begin
      let j = i + String.length pat in
      let k = ref j in
      while
        !k < String.length line
        && (match line.[!k] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr k
      done;
      if !k > j then Some (int_of_string (String.sub line j (!k - j))) else None
    end
    else find (i + 1)
  in
  find 0

let field_str line name =
  let pat = "\"" ^ name ^ "\":\"" in
  let rec find i =
    if i + String.length pat > String.length line then None
    else if String.sub line i (String.length pat) = pat then
      let j = i + String.length pat in
      Option.map (fun k -> String.sub line j (k - j)) (String.index_from_opt line j '"')
    else find (i + 1)
  in
  find 0

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let test_trace_wellformed () =
  let path = Filename.temp_file "pcolor_trace" ".jsonl" in
  let sink = Trace.open_sink ~path in
  let setups = [ tiny_setup (); tiny_setup ~policy:Run.Bin_hopping () ] in
  (* two parallel instrumented runs sharing one sink: whole-line
     interleaving must still hold *)
  ignore
    (Pool.map ~jobs:2
       (fun s -> Run.run { s with obs = Ctx.create ~trace:(Trace.buffer sink) () })
       setups);
  Trace.close sink;
  let lines = read_lines path in
  Sys.remove path;
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Json.check line with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "unparseable trace line %S: %s" line e))
    lines;
  (* B/E balance per (pid, tid): nesting depth never goes negative and
     ends at zero on every thread row *)
  let depth = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match (field_str line "ph", field_int line "pid", field_int line "tid") with
      | Some "B", Some pid, Some tid ->
        let k = (pid, tid) in
        Hashtbl.replace depth k (1 + Option.value ~default:0 (Hashtbl.find_opt depth k))
      | Some "E", Some pid, Some tid ->
        let k = (pid, tid) in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth k) - 1 in
        if d < 0 then Alcotest.fail "span E without matching B";
        Hashtbl.replace depth k d
      | _ -> ())
    lines;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then Alcotest.fail (Printf.sprintf "unbalanced spans on pid=%d tid=%d" pid tid))
    depth;
  let spans = List.length (List.filter (fun l -> field_str l "ph" = Some "B") lines) in
  Alcotest.(check bool) "at least one span per run" true (spans >= 2)

(* ---- 5. PCOLOR_JOBS validation ---- *)

(* Unix.putenv cannot unset a variable, so the unset path is exercised
   only when the suite starts without PCOLOR_JOBS; afterwards the
   variable is restored (or parked at a valid value). *)
let test_default_jobs () =
  let original = Sys.getenv_opt "PCOLOR_JOBS" in
  if original = None then
    Alcotest.(check bool) "unset: recommended count >= 1" true (Pool.default_jobs () >= 1);
  let finally () = Unix.putenv "PCOLOR_JOBS" (Option.value ~default:"4" original) in
  Fun.protect ~finally (fun () ->
      Unix.putenv "PCOLOR_JOBS" "3";
      Alcotest.(check int) "PCOLOR_JOBS=3 honored" 3 (Pool.default_jobs ());
      Unix.putenv "PCOLOR_JOBS" " 8 ";
      Alcotest.(check int) "whitespace trimmed" 8 (Pool.default_jobs ());
      List.iter
        (fun v ->
          Unix.putenv "PCOLOR_JOBS" v;
          match Pool.default_jobs () with
          | _ -> Alcotest.fail (Printf.sprintf "PCOLOR_JOBS=%S accepted" v)
          | exception Failure msg ->
            let mentions_value =
              let pat = Printf.sprintf "%S" v in
              let rec find i =
                i + String.length pat <= String.length msg
                && (String.sub msg i (String.length pat) = pat || find (i + 1))
              in
              find 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "message names the offending value %S" v)
              true mentions_value)
        [ "abc"; "0"; "-2"; "1.5"; "" ])

(* ---- 6. run artifacts ---- *)

let test_artifact_json () =
  let reg = Metrics.create () in
  let o = Run.run { (tiny_setup ()) with obs = Ctx.create ~metrics:reg () } in
  let provenance =
    Provenance.collect ~scale:64 ~jobs:1 ~seed:42 ~config_hash:(Provenance.hash_value "cfg") ()
  in
  let s = Json.to_string (Run.artifact_json ~provenance o) in
  (match Json.check s with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("artifact does not parse: " ^ e));
  List.iter
    (fun needle ->
      let rec find i =
        i + String.length needle <= String.length s
        && (String.sub s i (String.length needle) = needle || find (i + 1))
      in
      Alcotest.(check bool) ("artifact contains " ^ needle) true (find 0))
    [
      Printf.sprintf "\"schema_version\":%d" Pcolor.Obs.Provenance.schema_version;
      "\"provenance\"";
      "\"report\"";
      "\"metrics\"";
      "\"benchmark\"";
    ]

let suite =
  [
    ( "obs.json",
      [
        Alcotest.test_case "printer" `Quick test_json_print;
        Alcotest.test_case "validator" `Quick test_json_check;
        Alcotest.test_case "print/validate round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "golden artifacts reprint byte for byte" `Quick
          test_json_golden_reprint;
        QCheck_alcotest.to_alcotest test_json_parse_inverts_printers;
        Alcotest.test_case "rejected inputs keep message and offset" `Quick test_json_rejections;
        Alcotest.test_case "number edges and deep nesting" `Quick test_json_edges;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
        Alcotest.test_case "kind collision" `Quick test_kind_collision;
        Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
        Alcotest.test_case "merge sums element-wise" `Quick test_merge;
        Alcotest.test_case "snapshots identical for jobs=1 and jobs=4" `Quick
          test_metrics_jobs_identical;
        Alcotest.test_case "expected instruments are registered" `Quick test_metrics_nonempty;
      ] );
    ( "obs.contract",
      [
        Alcotest.test_case "report byte-identical with observability on" `Quick
          test_obs_off_identical;
      ] );
    ( "obs.trace",
      [ Alcotest.test_case "JSONL parses and spans balance" `Quick test_trace_wellformed ] );
    ( "obs.env",
      [ Alcotest.test_case "PCOLOR_JOBS validation" `Quick test_default_jobs ] );
    ( "obs.artifact",
      [ Alcotest.test_case "run artifact serializes and parses" `Quick test_artifact_json ] );
  ]
