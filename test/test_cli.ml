(* Command-line robustness: a bad flag value must end in one stderr line
   naming the flag and exit 2 — the convention `--slices 3` set — never
   in an uncaught exception (exit 125 and a backtrace). *)

let tape = Filename.concat (Filename.get_temp_dir_name ()) "pcolor_cli_rejected.pcbt"

(* [rejects ~flag args] runs the CLI on [args] and expects the refusal;
   [~no_file] must not exist afterwards (a refused command writes
   nothing). *)
let rejects ~flag ?no_file args () =
  let label = String.concat " " args in
  Option.iter (fun f -> if Sys.file_exists f then Sys.remove f) no_file;
  let code, stderr = Helpers.run_cli args in
  Alcotest.(check int) (label ^ ": exit code") 2 code;
  (match String.split_on_char '\n' stderr with
  | [ line; "" ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %s" label line flag)
      true
      (String.starts_with ~prefix:(flag ^ ": ") line)
  | _ -> Alcotest.failf "%s: expected one stderr line, got %S" label stderr);
  Option.iter
    (fun f -> Alcotest.(check bool) (label ^ ": nothing written") false (Sys.file_exists f))
    no_file

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The removed batch engine is an unknown [--engine] value: a usage
   error listing the engines that exist, not an exception. *)
let test_engine_batch_refused () =
  let code, stderr = Helpers.run_cli [ "run"; "tomcatv"; "-s"; "64"; "--engine=batch" ] in
  Alcotest.(check bool) (Printf.sprintf "non-zero exit (%d)" code) true (code <> 0);
  Alcotest.(check bool) "not an uncaught exception" true (code <> 125);
  List.iter
    (fun engine ->
      Alcotest.(check bool) ("names " ^ engine) true (contains stderr ("'" ^ engine ^ "'")))
    [ "runs"; "interp" ];
  Alcotest.(check bool) "no backtrace" false
    (contains stderr "Raised at" || contains stderr "Fatal error" || contains stderr "exception")

(* ---- perf ingest / perf check at the command line ---- *)

module Ledger = Pcolor.Obs.Ledger

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A scratch directory holding a copy of the repository's BENCHMARK.json
   (the ledger tools read the one beside the ledger) and a ledger path. *)
let with_ledger_dir f =
  let dir = Filename.temp_dir "pcolor_perf_cli" "" in
  Out_channel.with_open_bin (Filename.concat dir "BENCHMARK.json") (fun oc ->
      output_string oc (read_file "../BENCHMARK.json"));
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () -> f dir (Filename.concat dir "PERF_LEDGER.jsonl"))

let one_line ~prefix label stderr =
  match String.split_on_char '\n' stderr with
  | [ line; "" ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S starts with %s" label line prefix)
      true
      (String.starts_with ~prefix line)
  | _ -> Alcotest.failf "%s: expected one stderr line, got %S" label stderr

let ingest ~dir ~ledger input =
  let stdin = Filename.concat dir "stdin" in
  Out_channel.with_open_bin stdin (fun oc -> output_string oc input);
  Helpers.run_cli ~stdin [ "perf"; "ingest"; "--workload"; "sweep"; "--ledger"; ledger ]

let result_line ~correct = Printf.sprintf
    {|{"correct": %b, "attempted": 100, "failed": %d, "metrics": {"refs_per_s": {"value": 3.7e7, "unit": "refs/s"}, "peak_heap_mb": {"value": 5.4, "unit": "MiB"}}}|}
    correct (if correct then 0 else 2)

let test_ingest_appends () =
  with_ledger_dir (fun dir ledger ->
      (* perfbench's progress may precede the result: the last line counts *)
      let code, stderr = ingest ~dir ~ledger ("progress\n" ^ result_line ~correct:true ^ "\n") in
      Alcotest.(check int) ("exit code; stderr " ^ stderr) 0 code;
      let records, skipped = Ledger.load ~path:ledger in
      Alcotest.(check int) "no corrupt lines" 0 skipped;
      Alcotest.(check (list string)) "one record per metric"
        [ "sweep/refs_per_s"; "sweep/peak_heap_mb" ]
        (List.map (fun r -> r.Ledger.section) records))

let test_ingest_rejects () =
  with_ledger_dir (fun dir ledger ->
      let before = "{\"section\":\"sweep/refs_per_s\",\"median\":1.0,\"git\":\"old\"}\n" in
      Out_channel.with_open_bin ledger (fun oc -> output_string oc before);
      List.iter
        (fun (label, input) ->
          let code, stderr = ingest ~dir ~ledger input in
          Alcotest.(check int) (label ^ ": exit code") 2 code;
          one_line ~prefix:"perf ingest: " label stderr;
          Alcotest.(check string) (label ^ ": ledger unchanged") before (read_file ledger))
        [
          ("empty stdin", "");
          ("non-JSON", "refs_per_s = 3.7e7\n");
          ("no metrics", {|{"correct": true, "attempted": 1, "failed": 0}|});
          ("correct: false", result_line ~correct:false);
        ])

let stamped git (section, value) =
  let trials = [| value |] in
  Ledger.make ~section ~unit_name:"refs/s" ~summary:(Pcolor.Obs.Stat.summarize trials) ~trials
    ~provenance:
      {
        Pcolor.Obs.Provenance.timestamp = "2026-10-01T00:00:00Z";
        hostname = "testhost";
        git = Some git;
        scale = None;
        jobs = None;
        seed = None;
        config_hash = None;
      }
    ()

let check ~ledger base fresh = Helpers.run_cli [ "perf"; "check"; base; fresh; "--ledger"; ledger ]

(* The pipeline's own no-regression rule: 30% fewer refs/s breaches the
   0.25 bound BENCHMARK.json declares, 10% fewer does not. *)
let test_check_bound () =
  with_ledger_dir (fun _ ledger ->
      Ledger.append ~path:ledger
        [
          stamped "A" ("sweep/refs_per_s", 100.0);
          stamped "B" ("sweep/refs_per_s", 70.0);
          stamped "C" ("sweep/refs_per_s", 90.0);
        ];
      let code, stderr = check ~ledger "A" "B" in
      Alcotest.(check int) "30% lower: exit 1" 1 code;
      one_line ~prefix:"perf check: " "30% lower" stderr;
      Alcotest.(check bool) ("names the section: " ^ stderr) true
        (contains stderr "sweep/refs_per_s");
      let code, stderr = check ~ledger "A" "C" in
      Alcotest.(check int) ("10% lower: exit 0; stderr " ^ stderr) 0 code)

let test_check_rejects () =
  with_ledger_dir (fun _ ledger ->
      Ledger.append ~path:ledger
        [ stamped "A" ("sweep/refs_per_s", 100.0); stamped "B" ("single_domain", 90.0) ];
      List.iter
        (fun (label, base, fresh) ->
          let code, stderr = check ~ledger base fresh in
          Alcotest.(check int) (label ^ ": exit code") 2 code;
          one_line ~prefix:"perf check: " label stderr)
        [ ("absent stamp", "A", "Z"); ("no comparable section", "A", "B") ])

let suite =
  [
    ( "cli.rejects",
      [
        Alcotest.test_case "run --scale 32" `Quick
          (rejects ~flag:"--scale" [ "run"; "tomcatv"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "compare --scale 32" `Quick
          (rejects ~flag:"--scale" [ "compare"; "tomcatv"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "mix --scale 32" `Quick
          (rejects ~flag:"--scale" [ "mix"; "tomcatv"; "swim"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "record --scale 32" `Quick
          (rejects ~flag:"--scale" ~no_file:tape
             [ "record"; "tomcatv"; "--scale"; "32"; "-o"; tape ]);
        Alcotest.test_case "run --cpus 0" `Quick
          (rejects ~flag:"--cpus" [ "run"; "swim"; "-s"; "64"; "--cpus"; "0" ]);
        Alcotest.test_case "mix --cpus 0" `Quick
          (rejects ~flag:"--cpus" [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "--cpus"; "0" ]);
        Alcotest.test_case "mix --mem-frames 0" `Quick
          (rejects ~flag:"--mem-frames"
             [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "-p"; "4"; "--mem-frames"; "0" ]);
        Alcotest.test_case "run unknown bench" `Quick
          (rejects ~flag:"Spec.find" [ "run"; "tomcatX"; "-s"; "64" ]);
        Alcotest.test_case "compare unknown bench" `Quick
          (rejects ~flag:"Spec.find" [ "compare"; "tomcatX"; "-s"; "64"; "-p"; "2" ]);
        (* the convention the cases above follow *)
        Alcotest.test_case "run --slices 3" `Quick
          (rejects ~flag:"--slices/--llc-hash"
             [ "run"; "tomcatv"; "-s"; "64"; "--slices"; "3" ]);
        Alcotest.test_case "run --engine=batch" `Quick test_engine_batch_refused;
      ] );
    ( "cli.perf",
      [
        Alcotest.test_case "ingest appends one record per metric" `Quick test_ingest_appends;
        Alcotest.test_case "ingest rejects bad input, ledger unchanged" `Quick test_ingest_rejects;
        Alcotest.test_case "check fails beyond the bound" `Quick test_check_bound;
        Alcotest.test_case "check rejects absent stamps" `Quick test_check_rejects;
      ] );
  ]
