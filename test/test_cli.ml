(* Command-line robustness: a bad flag value, an output path in a
   missing directory or a directory given as a replay input must end in
   one stderr line naming the flag (the path, for the replay input) and
   exit 2 — the convention `--slices 3` set — never in an uncaught
   exception (exit 125 and a backtrace). *)

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

(* An output path under a directory that does not exist. *)
let missing name =
  Filename.concat (Filename.concat (Filename.get_temp_dir_name ()) "pcolor_no_such_dir") name

(* A real tape for the replay cases, recorded once. *)
let good_tape =
  lazy
    (let path = Filename.concat (Filename.get_temp_dir_name ()) "pcolor_cli_good.pcbt" in
     let code, stderr =
       Helpers.run_cli [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "-o"; path ]
     in
     if code <> 0 then Alcotest.failf "recording the replay input failed (%d): %s" code stderr;
     path)

let rejects_replay ~flag args () = rejects ~flag ("replay" :: Lazy.force good_tape :: args) ()

(* [rejects_header name edit] writes a tape whose header is a good
   one changed by [edit] and expects its replay refused in one line
   naming the tape. *)
let rejects_header name edit () =
  let module Btrace = Pcolor.Runtime.Btrace in
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("pcolor_cli_" ^ name ^ ".pcbt") in
  Out_channel.with_open_bin path (fun oc ->
      Btrace.finish
        (Btrace.create_writer oc
           (edit
              {
                Btrace.bench = "tomcatv";
                machine = "sgi";
                n_cpus = 2;
                scale = 64;
                policy = "cdpc";
                prefetch = false;
                seed = 42;
                cap = 2;
                provenance = "";
              })));
  rejects ~flag:path [ "replay"; path ] ()

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

(* A run artifact with a timeline section, written once, for the
   explain/timeline flag cases. *)
let timeline_artifact =
  lazy
    (let path = Filename.concat (Filename.get_temp_dir_name ()) "pcolor_cli_timeline.json" in
     let code, stderr =
       Helpers.run_cli
         [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--timeline=20000"; "--metrics-out"; path ]
     in
     if code <> 0 then Alcotest.failf "writing the timeline artifact failed (%d): %s" code stderr;
     path)

let rejects_artifact ~flag cmd args () =
  rejects ~flag (cmd :: Lazy.force timeline_artifact :: args) ()

module J = Pcolor.Obs.Json

let set_field key v = function
  | J.Obj fields -> J.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) fields)
  | j -> j

(* [map_list key f j] replaces the array under [key] by [f] of its
   elements. *)
let map_list key f j =
  match J.member key j with Some (J.Arr l) -> set_field key (J.Arr (f l)) j | _ -> j

(* Timeline edits: one column renamed, or one cell set in every row
   ([~first]: in the first row only). *)
let rename_column i =
  map_list "columns" (List.mapi (fun j c -> if j = i then J.Str "renamed" else c))

let set_cell ?(first = false) col v =
  map_list "rows"
    (List.mapi (fun i r ->
         match r with
         | J.Arr cells when i = 0 || not first ->
           J.Arr (List.mapi (fun j c -> if j = col then J.Int v else c) cells)
         | r -> r))

(* [rejects_timeline name edit cmd args] writes a copy of the timeline
   artifact whose "timeline" section went through [edit] and expects
   [cmd] on it to be refused with one line naming the copy. *)
let rejects_timeline name edit cmd args () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("pcolor_cli_" ^ name ^ ".json") in
  (match J.parse (read_file (Lazy.force timeline_artifact)) with
  | Ok a ->
    let tl = edit (Option.get (J.member "timeline" a)) in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (J.to_string (set_field "timeline" tl a)))
  | Error e -> Alcotest.fail e);
  rejects ~flag:path (cmd :: path :: args) ()

(* One name table serves [--machine] and tape headers: a tape recorded
   on a non-default model replays on that model, to the same report. *)
let test_record_replay_models () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let report path =
    match Pcolor.Obs.Json.parse (read_file path) with
    | Ok v -> Pcolor.Obs.Json.member "report" v
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  List.iter
    (fun machine ->
      let tape = tmp ("pcolor_cli_" ^ machine ^ ".pcbt")
      and recorded = tmp ("pcolor_cli_" ^ machine ^ "_record.json")
      and replayed = tmp ("pcolor_cli_" ^ machine ^ "_replay.json") in
      let run args =
        let code, stderr = Helpers.run_cli args in
        Alcotest.(check int) (String.concat " " args ^ ": exit code; stderr " ^ stderr) 0 code
      in
      run
        [ "record"; "swim"; "--machine"; machine; "-s"; "64"; "-p"; "2"; "-o"; tape;
          "--metrics-out"; recorded ];
      run [ "replay"; tape; "--metrics-out"; replayed ];
      Alcotest.(check bool) (machine ^ ": report present") true (report recorded <> None);
      Alcotest.(check bool) (machine ^ ": replayed report = recorded") true
        (report recorded = report replayed))
    [ "sgi-2way"; "alpha" ]

(* The exact gate compares the decision log's page listing row by row:
   two artifacts that differ in one [pages] row only are not identical
   under [--exact], while the threshold mode, which skips rankings,
   reports no difference. *)
let test_diff_exact_pages () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("pcolor_cli_diff_" ^ name) in
  let a = tmp "a.json" and b = tmp "b.json" in
  let code, stderr =
    Helpers.run_cli [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--policy"; "cdpc"; "--metrics-out"; a ]
  in
  if code <> 0 then Alcotest.failf "writing the cdpc artifact failed (%d): %s" code stderr;
  let recolor_first_page =
    List.mapi (fun i row -> if i = 0 then set_field "color" (J.Int 12345) row else row)
  in
  (match J.parse (read_file a) with
  | Ok art ->
    let decisions = Option.get (J.member "coloring_decisions" art) in
    Alcotest.(check bool) "the artifact lists pages" true
      (match J.member "pages" decisions with Some (J.Arr (_ :: _)) -> true | _ -> false);
    Out_channel.with_open_bin b (fun oc ->
        output_string oc
          (J.to_string
             (set_field "coloring_decisions" (map_list "pages" recolor_first_page decisions) art)))
  | Error e -> Alcotest.fail e);
  let diff args = fst (Helpers.run_cli ("diff" :: a :: b :: args)) in
  Alcotest.(check int) "--exact on itself" 0 (fst (Helpers.run_cli [ "diff"; a; a; "--exact" ]));
  Alcotest.(check int) "--exact sees the pages row" 1 (diff [ "--exact" ]);
  Alcotest.(check int) "threshold mode skips rankings" 0 (diff []);
  List.iter Sys.remove [ a; b ]

(* [accepts args] runs the CLI on [args] and expects success: exit 0,
   nothing on stderr. *)
let accepts args () =
  let label = String.concat " " args in
  let code, stderr = Helpers.run_cli args in
  Alcotest.(check int) (label ^ ": exit code; stderr " ^ stderr) 0 code;
  Alcotest.(check string) (label ^ ": stderr") "" stderr

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
        (* an accepted scale that leaves a machine model's L2 fewer than
           two colors *)
        Alcotest.test_case "run --scale 256" `Quick
          (rejects ~flag:"--scale" [ "run"; "tomcatv"; "-p"; "4"; "-s"; "256" ]);
        Alcotest.test_case "run --machine sgi-2way --scale 256" `Quick
          (rejects ~flag:"--scale"
             [ "run"; "tomcatv"; "--machine"; "sgi-2way"; "-p"; "4"; "-s"; "256" ]);
        Alcotest.test_case "mix --scale 256" `Quick
          (rejects ~flag:"--scale" [ "mix"; "tomcatv"; "swim"; "-p"; "4"; "-s"; "256" ]);
        (* the shared cap and timeline checks, before any output opens *)
        Alcotest.test_case "run --cap 0" `Quick
          (rejects ~flag:"--cap" [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--cap"; "0" ]);
        Alcotest.test_case "compare --cap 0" `Quick
          (rejects ~flag:"--cap" [ "compare"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--cap"; "0" ]);
        Alcotest.test_case "mix --cap 0" `Quick
          (rejects ~flag:"--cap" [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "-p"; "2"; "--cap"; "0" ]);
        Alcotest.test_case "record --cap 0" `Quick
          (rejects ~flag:"--cap" ~no_file:tape
             [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--cap"; "0"; "-o"; tape ]);
        Alcotest.test_case "run-file --cap 0" `Quick
          (rejects ~flag:"--cap"
             [ "run-file"; "../examples/programs/jacobi.sexp"; "-s"; "64"; "-p"; "2"; "--cap"; "0" ]);
        Alcotest.test_case "run --timeline=0" `Quick
          (rejects ~flag:"--timeline" [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--timeline=0" ]);
        Alcotest.test_case "compare --timeline=-1" `Quick
          (rejects ~flag:"--timeline"
             [ "compare"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--timeline=-1" ]);
        Alcotest.test_case "mix --timeline=0" `Quick
          (rejects ~flag:"--timeline"
             [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "-p"; "2"; "--timeline=0" ]);
        Alcotest.test_case "record --timeline=0" `Quick
          (rejects ~flag:"--timeline" ~no_file:tape
             [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--timeline=0"; "-o"; tape ]);
        Alcotest.test_case "replay --timeline=-1" `Quick
          (rejects_replay ~flag:"--timeline" [ "--timeline=-1" ]);
        (* command-specific values *)
        Alcotest.test_case "mix --sched space, more jobs than CPUs" `Quick
          (rejects ~flag:"--sched"
             [ "mix"; "tomcatv"; "swim"; "hydro2d"; "-s"; "64"; "-p"; "2"; "--sched"; "space" ]);
        Alcotest.test_case "mix --policy foo" `Quick
          (rejects ~flag:"--policy" [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "--policy"; "foo" ]);
        (* the probe's addresses overflow an OCaml int past 48 window
           bits on this machine: 50 used to pass a false mismatch, 100
           to crash *)
        Alcotest.test_case "probe --window 50" `Quick
          (rejects ~flag:"--window" [ "probe"; "-s"; "64"; "--window"; "50" ]);
        Alcotest.test_case "probe --window 100" `Quick
          (rejects ~flag:"--window" [ "probe"; "-s"; "64"; "--window"; "100" ]);
        Alcotest.test_case "timeline --job 0 --window 0" `Quick
          (rejects_artifact ~flag:"--window" "timeline" [ "--job"; "0"; "--window"; "0" ]);
        Alcotest.test_case "explain --at 5-2" `Quick
          (rejects_artifact ~flag:"--at" "explain" [ "--at"; "5-2" ]);
        (* a malformed timeline section: one line naming the file *)
        Alcotest.test_case "timeline without an epoch column" `Quick
          (rejects_timeline "no_epoch" (rename_column 0) "timeline" []);
        Alcotest.test_case "explain --at without an epoch column" `Quick
          (rejects_timeline "no_epoch" (rename_column 0) "explain" [ "--at"; "0-3" ]);
        Alcotest.test_case "timeline without a job column" `Quick
          (rejects_timeline "no_job" (rename_column 2) "timeline" []);
        Alcotest.test_case "explain --at without a job column" `Quick
          (rejects_timeline "no_job" (rename_column 2) "explain" [ "--at"; "0-3" ]);
        Alcotest.test_case "timeline with negative epochs" `Quick
          (rejects_timeline "neg_epoch" (set_cell 0 (-5)) "timeline" []);
        Alcotest.test_case "timeline with a cpu past n_cpus" `Quick
          (rejects_timeline "big_cpu" (set_cell ~first:true 1 2) "timeline" []);
        Alcotest.test_case "timeline with n_cpus 0" `Quick
          (rejects_timeline "no_cpus" (set_field "n_cpus" (J.Int 0)) "timeline" []);
        Alcotest.test_case "timeline with epoch_cycles 0" `Quick
          (rejects_timeline "zero_epoch" (set_field "epoch_cycles" (J.Int 0)) "timeline" []);
        (* JSON that is not a pcolor artifact *)
        Alcotest.test_case "explain BENCHMARK.json" `Quick
          (rejects ~flag:"../BENCHMARK.json" [ "explain"; "../BENCHMARK.json" ]);
        Alcotest.test_case "diff BENCHMARK.json" `Quick
          (rejects_artifact ~flag:"../BENCHMARK.json" "diff" [ "../BENCHMARK.json" ]);
        (* one past Config.max_cpus, and far past it *)
        Alcotest.test_case "run --cpus 33" `Quick
          (rejects ~flag:"--cpus" [ "run"; "tomcatv"; "-s"; "64"; "-p"; "33" ]);
        Alcotest.test_case "mix --cpus 64" `Quick
          (rejects ~flag:"--cpus" [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "-p"; "64" ]);
        Alcotest.test_case "record --cpus 40" `Quick
          (rejects ~flag:"--cpus" ~no_file:tape [ "record"; "tomcatv"; "-s"; "64"; "-p"; "40"; "-o"; tape ]);
      ] );
    ( "cli.paths",
      [
        Alcotest.test_case "record -o in a missing directory" `Quick
          (rejects ~flag:"-o"
             [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "-o"; missing "x.pcbt" ]);
        Alcotest.test_case "replay a directory" `Quick
          (let dir = Filename.get_temp_dir_name () in
           rejects ~flag:dir [ "replay"; dir ]);
        Alcotest.test_case "replay a tape of an unknown machine model" `Quick
          (rejects_header "unknown_model" (fun h -> { h with machine = "cray" }));
        Alcotest.test_case "replay a tape too deep for its machine model" `Quick
          (rejects_header "too_deep" (fun h -> { h with scale = 256 }));
        Alcotest.test_case "run --trace in a missing directory" `Quick
          (rejects ~flag:"--trace"
             [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--trace"; missing "t.json" ]);
        Alcotest.test_case "record --trace in a missing directory" `Quick
          (rejects ~flag:"--trace" ~no_file:tape
             [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "-o"; tape; "--trace";
               missing "t.json" ]);
        Alcotest.test_case "replay --trace in a missing directory" `Quick
          (rejects_replay ~flag:"--trace" [ "--trace"; missing "t.json" ]);
        Alcotest.test_case "run --metrics-out in a missing directory" `Quick
          (rejects ~flag:"--metrics-out"
             [ "run"; "tomcatv"; "-s"; "64"; "-p"; "2"; "--metrics-out"; missing "m.json" ]);
        Alcotest.test_case "record --metrics-out in a missing directory" `Quick
          (rejects ~flag:"--metrics-out" ~no_file:tape
             [ "record"; "tomcatv"; "-s"; "64"; "-p"; "2"; "-o"; tape; "--metrics-out";
               missing "m.json" ]);
        Alcotest.test_case "replay --metrics-out in a missing directory" `Quick
          (rejects_replay ~flag:"--metrics-out" [ "--metrics-out"; missing "m.json" ]);
      ] );
    ( "cli.accepts",
      [
        (* the summary's page granularity is the unscaled model's: every
           scale [--scale] accepts works, including one that leaves the
           scaled L2 a single color *)
        Alcotest.test_case "summary --scale 1" `Quick (accepts [ "summary"; "tomcatv"; "-s"; "1" ]);
        Alcotest.test_case "summary --scale 256" `Quick
          (accepts [ "summary"; "tomcatv"; "-s"; "256" ]);
        Alcotest.test_case "pattern --order cdpc" `Quick
          (accepts [ "pattern"; "swim"; "--order"; "cdpc"; "-p"; "8"; "-s"; "16" ]);
        Alcotest.test_case "hints" `Quick (accepts [ "hints"; "su2cor"; "-p"; "8"; "-s"; "16" ]);
        Alcotest.test_case "run --machine sgi-4mb --scale 256" `Quick
          (accepts [ "run"; "tomcatv"; "--machine"; "sgi-4mb"; "-p"; "4"; "-s"; "256" ]);
        Alcotest.test_case "probe --window at the bound" `Quick
          (accepts [ "probe"; "-s"; "64"; "--window"; "48" ]);
        Alcotest.test_case "record/replay on sgi-2way and alpha" `Quick test_record_replay_models;
      ] );
    ( "cli.perf",
      [
        Alcotest.test_case "ingest appends one record per metric" `Quick test_ingest_appends;
        Alcotest.test_case "ingest rejects bad input, ledger unchanged" `Quick test_ingest_rejects;
        Alcotest.test_case "check fails beyond the bound" `Quick test_check_bound;
        Alcotest.test_case "check rejects absent stamps" `Quick test_check_rejects;
      ] );
    ( "cli.diff",
      [ Alcotest.test_case "--exact compares the pages rows" `Quick test_diff_exact_pages ] );
  ]
