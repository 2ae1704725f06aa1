(* Perf-observatory tests:

   1. ledger round-trip through JSONL, plus the corrupt-line tolerance
      contract (skip and count, never fail);
   2. the profiler's zero-overhead-off contract: attaching a profiler
      leaves the run artifact byte-identical, and the prof-off hot path
      allocates nothing beyond the run's own deterministic footprint;
   3. prof-on sanity: the engine phases actually get bracketed;
   4. perf ingest / perf check: a perfbench result line becomes one
      ledger record per metric, and two git stamps are compared against
      the BENCHMARK.json bounds;
   5. history rendering smoke over a mixed old + live ledger;
   6. the git stamp's dirtiness ignores what bench and ingest runs
      write (the ledger, root BENCH_*.json). *)

module Json = Pcolor.Obs.Json
module Stat = Pcolor.Obs.Stat
module Ledger = Pcolor.Obs.Ledger
module Prof = Pcolor.Obs.Prof
module Ctx = Pcolor.Obs.Ctx
module Provenance = Pcolor.Obs.Provenance
module Perf = Pcolor.Stats.Perf
module Run = Pcolor.Runtime.Run

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let provenance =
  {
    Provenance.timestamp = "2026-08-08T00:00:00Z";
    hostname = "testhost";
    git = Some "deadbee";
    scale = Some 64;
    jobs = Some 2;
    seed = None;
    config_hash = None;
  }

let mk_record ?(section = "single_domain") ?(note = "") trials =
  Ledger.make ~section ~unit_name:"refs_per_sec" ~summary:(Stat.summarize trials) ~trials
    ~provenance ~note ()

(* ---- 1. ledger ---- *)

let test_ledger_roundtrip () =
  let path = Filename.temp_file "pcolor_ledger" ".jsonl" in
  let r1 = mk_record [| 10.0; 12.0; 11.0 |] in
  let r2 = mk_record ~section:"mix" ~note:"backfill" [| 0.5 |] in
  Ledger.append ~path [ r1 ];
  Ledger.append ~path [ r2 ];
  let loaded, skipped = Ledger.load ~path in
  Sys.remove path;
  Alcotest.(check int) "no skips" 0 skipped;
  Alcotest.(check int) "two records" 2 (List.length loaded);
  let l1 = List.nth loaded 0 and l2 = List.nth loaded 1 in
  Alcotest.(check string) "section" "single_domain" l1.Ledger.section;
  Alcotest.(check (float 1e-9)) "median survives" 11.0 l1.Ledger.median;
  Alcotest.(check (array (float 1e-9))) "trials survive" [| 10.0; 12.0; 11.0 |] l1.Ledger.trials;
  Alcotest.(check string) "git" "deadbee" l1.Ledger.git;
  Alcotest.(check string) "hostname" "testhost" l1.Ledger.hostname;
  Alcotest.(check int) "scale" 64 l1.Ledger.scale;
  Alcotest.(check string) "note survives" "backfill" l2.Ledger.note;
  Alcotest.(check string) "section" "mix" l2.Ledger.section

let test_ledger_corrupt_lines () =
  let path = Filename.temp_file "pcolor_ledger" ".jsonl" in
  Ledger.append ~path [ mk_record [| 1.0; 2.0; 3.0 |] ];
  (* a half-written line, plain garbage, JSON of the wrong shape, and a
     blank line — all skipped, all counted except the blank *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"section\":\"truncated\",\"med\n";
  output_string oc "not json at all\n";
  output_string oc "{\"no_section\":true}\n";
  output_string oc "\n";
  close_out oc;
  Ledger.append ~path [ mk_record ~section:"after" [| 4.0 |] ];
  let loaded, skipped = Ledger.load ~path in
  Sys.remove path;
  Alcotest.(check int) "good records survive corruption" 2 (List.length loaded);
  Alcotest.(check bool) "later record still read" true
    (List.exists (fun r -> r.Ledger.section = "after") loaded);
  Alcotest.(check int) "corrupt lines counted" 3 skipped

let test_ledger_corrupt_only () =
  (* a ledger of nothing but corruption: zero records, every line
     counted — the count is the only evidence the file was not empty *)
  let path = Filename.temp_file "pcolor_ledger" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"section\":\n";
  output_string oc "}{][\n";
  output_string oc "\"just a string\"\n";
  close_out oc;
  let loaded, skipped = Ledger.load ~path in
  Sys.remove path;
  Alcotest.(check int) "no records" 0 (List.length loaded);
  Alcotest.(check int) "every corrupt line counted" 3 skipped

let test_ledger_missing_file () =
  let loaded, skipped = Ledger.load ~path:"/nonexistent/pcolor_ledger.jsonl" in
  Alcotest.(check int) "empty" 0 (List.length loaded);
  Alcotest.(check int) "no skips" 0 skipped

(* ---- 2 + 3. profiler contracts ---- *)

let tiny_setup () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy:Run.Page_coloring

let artifact setup =
  Json.to_string (Run.artifact_json ~provenance (Run.run setup))

let test_prof_off_byte_identity () =
  (* the profiler must not move a single simulated counter: a run with
     the profiler attached yields a byte-identical artifact *)
  let plain = artifact (tiny_setup ()) in
  let prof = Prof.create () in
  let profiled = artifact { (tiny_setup ()) with obs = Ctx.create ~prof () } in
  Alcotest.(check string) "artifact identical with profiler attached" plain profiled

let test_prof_off_no_allocation () =
  (* prof-off hot path pins: the option branch allocates nothing, so
     two identical prof-off runs have the exact same minor-heap
     footprint (OCaml allocation is deterministic for deterministic
     code — any drift means the off path allocates) *)
  let measure () =
    let s = tiny_setup () in
    let w0 = Gc.minor_words () in
    ignore (Run.run s);
    Gc.minor_words () -. w0
  in
  let d1 = measure () in
  let d2 = measure () in
  Alcotest.(check (float 0.0)) "prof-off allocation footprint stable" d1 d2

let test_prof_on_records_phases () =
  let prof = Prof.create () in
  ignore (Run.run { (tiny_setup ()) with obs = Ctx.create ~prof () });
  let rows = Prof.rows prof in
  let find name = List.find_opt (fun (r : Prof.row) -> r.Prof.name = name) rows in
  (match find "walker fill" with
  | Some r -> Alcotest.(check bool) "fill bracketed" true (r.Prof.calls > 0)
  | None -> Alcotest.fail "no walker-fill row (runs engine should fill batches)");
  (match find "consume/retire" with
  | Some r ->
    Alcotest.(check bool) "consume bracketed" true (r.Prof.calls > 0);
    Alcotest.(check bool) "wall time non-negative" true (r.Prof.wall_s >= 0.0)
  | None -> Alcotest.fail "no consume row");
  let rendered = Prof.render prof in
  Alcotest.(check bool) "render mentions fill" true
    (contains ~needle:"walker fill" rendered)

let test_prof_manual_bracketing () =
  let p = Prof.create () in
  Prof.start p Prof.Serialize;
  Prof.stop p Prof.Serialize;
  Prof.start p Prof.Serialize;
  Prof.stop p Prof.Serialize;
  match Prof.rows p with
  | [ r ] ->
    Alcotest.(check string) "phase name" "serialize" r.Prof.name;
    Alcotest.(check int) "two calls" 2 r.Prof.calls
  | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

(* ---- 3b. sign-test CI degradation at tiny trial counts ---- *)

let test_stat_ci_n1 () =
  (* one trial: every order statistic is that trial; the sign-test CI
     honestly collapses to the point — exactly what a legacy flat
     float decodes to *)
  let s = Stat.summarize [| 5.0 |] in
  Alcotest.(check int) "n" 1 s.Stat.n;
  Alcotest.(check (float 0.0)) "median" 5.0 s.Stat.median;
  Alcotest.(check (float 0.0)) "mad" 0.0 s.Stat.mad;
  Alcotest.(check (float 0.0)) "ci_lo = point" 5.0 s.Stat.ci_lo;
  Alcotest.(check (float 0.0)) "ci_hi = point" 5.0 s.Stat.ci_hi

let test_stat_ci_n2 () =
  (* two trials: 95% coverage needs six sign flips, so the interval
     degrades to the full range [min, max], never an interior rank *)
  let s = Stat.summarize [| 9.0; 3.0 |] in
  Alcotest.(check int) "n" 2 s.Stat.n;
  Alcotest.(check (float 1e-9)) "median is the midpoint" 6.0 s.Stat.median;
  Alcotest.(check (float 1e-9)) "mad" 3.0 s.Stat.mad;
  Alcotest.(check (float 0.0)) "ci_lo = min" 3.0 s.Stat.ci_lo;
  Alcotest.(check (float 0.0)) "ci_hi = max" 9.0 s.Stat.ci_hi;
  Alcotest.(check (float 0.0)) "min_v" 3.0 s.Stat.min_v;
  Alcotest.(check (float 0.0)) "max_v" 9.0 s.Stat.max_v

(* ---- 4. perf ingest / perf check ---- *)

let parse s = match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e

(* A cut-down BENCHMARK.json: two end-to-end metrics of opposite
   direction and one per-layer metric. *)
let spec =
  match
    Perf.spec_of_json
      (parse
         {|{"workloads": [{"name": "sweep"}, {"name": "mix"}],
            "end_to_end": [
              {"name": "refs_per_s", "unit": "refs/s", "better": "higher", "bound": 0.25},
              {"name": "peak_heap_mb", "unit": "MiB", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "memsim.consume_s", "unit": "s", "better": "lower"}]}|})
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* a perfbench result line with the given metrics *)
let result_line ?(correct = true) metrics =
  Printf.sprintf {|{"correct": %b, "attempted": 40, "failed": %d, "metrics": {%s}}|} correct
    (if correct then 0 else 3)
    (String.concat ", "
       (List.map
          (fun (name, value, unit_name) ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit_name)
          metrics))

let ingest_at ?(workload = "sweep") git metrics =
  match
    Perf.ingest spec ~workload
      ~provenance:{ provenance with Provenance.git = Some git }
      (parse (result_line metrics))
  with
  | Ok rs -> rs
  | Error e -> Alcotest.fail e

let refs v = ("refs_per_s", v, "refs/s")

let heap v = ("peak_heap_mb", v, "MiB")

let consume v = ("memsim.consume_s", v, "s")

let check_ok ~base ~fresh records =
  match Perf.check spec records ~base ~fresh with
  | Ok vs -> vs
  | Error e -> Alcotest.fail e

let test_ingest_records () =
  match ingest_at "aaa1111" [ refs 3.7e7; heap 5.5 ] with
  | [ r; h ] ->
    Alcotest.(check string) "section" "sweep/refs_per_s" r.Ledger.section;
    Alcotest.(check string) "unit from the line" "refs/s" r.Ledger.unit_name;
    Alcotest.(check (float 0.0)) "median = value" 3.7e7 r.Ledger.median;
    Alcotest.(check (array (float 0.0))) "trials = [|value|]" [| 3.7e7 |] r.Ledger.trials;
    Alcotest.(check string) "git stamp" "aaa1111" r.Ledger.git;
    Alcotest.(check string) "second metric" "sweep/peak_heap_mb" h.Ledger.section;
    (* the schema is the old one: a record round-trips through JSON *)
    Alcotest.(check bool) "round-trips" true (Ledger.of_json (Ledger.to_json h) = Ok h)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let test_ingest_rejects () =
  let rejected label ?(workload = "sweep") line =
    match Perf.ingest spec ~workload ~provenance (parse line) with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
      Alcotest.(check bool) (label ^ ": one line") false (String.contains e '\n')
  in
  rejected "correct: false" (result_line ~correct:false [ refs 1.0 ]);
  rejected "no metrics" {|{"correct": true, "attempted": 1, "failed": 0}|};
  rejected "empty metrics" (result_line []);
  rejected "metric without unit" {|{"correct": true, "metrics": {"refs_per_s": {"value": 1.0}}}|};
  rejected "no correct field" {|{"metrics": {"refs_per_s": {"value": 1.0, "unit": "refs/s"}}}|};
  rejected "not an object" {|[1, 2]|};
  rejected "unknown workload" ~workload:"sweeep" (result_line [ refs 1.0 ])

let test_check_interval_baseline () =
  (* three samples at the base stamp: the check compares their median
     (100), not any single one, against the fresh stamp's median *)
  let base = List.concat_map (fun v -> ingest_at "base" [ refs v ]) [ 90.0; 110.0; 100.0 ] in
  let verdict fresh_v =
    match check_ok ~base:"base" ~fresh:"fresh" (base @ ingest_at "fresh" [ refs fresh_v ]) with
    | [ v ] -> v
    | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)
  in
  let v = verdict 70.0 in
  Alcotest.(check (float 1e-9)) "base median" 100.0 v.Perf.base;
  Alcotest.(check int) "base samples" 3 v.Perf.n_base;
  Alcotest.(check (float 1e-9)) "30% worse" 0.3 v.Perf.worse_by;
  Alcotest.(check bool) "30% lower fails the 0.25 bound" false v.Perf.ok;
  Alcotest.(check bool) "render shows FAIL" true
    (contains ~needle:"FAIL" (Perf.render_check ~base:"base" ~fresh:"fresh" [ v ]));
  Alcotest.(check bool) "10% lower passes" true (verdict 90.0).Perf.ok;
  Alcotest.(check bool) "faster passes" true (verdict 150.0).Perf.ok

let test_check_direction_and_layers () =
  (* peak_heap_mb is lower-is-better: growth fails, shrinkage passes;
     a per-layer metric is reported but never fails *)
  let records =
    ingest_at "base" [ refs 100.0; heap 10.0; consume 1.0 ]
    @ ingest_at "fresh" [ refs 100.0; heap 13.0; consume 2.0 ]
  in
  let vs = check_ok ~base:"base" ~fresh:"fresh" records in
  Alcotest.(check (list string)) "only the heap fails" [ "sweep/peak_heap_mb" ] (Perf.failures vs);
  let layer = List.find (fun v -> v.Perf.section = "sweep/memsim.consume_s") vs in
  Alcotest.(check bool) "per-layer 2x slower still ok" true layer.Perf.ok;
  Alcotest.(check bool) "per-layer printed" true
    (contains ~needle:"memsim.consume_s" (Perf.render_check ~base:"base" ~fresh:"fresh" vs));
  let shrunk = ingest_at "base" [ heap 10.0 ] @ ingest_at "fresh" [ heap 7.0 ] in
  Alcotest.(check (list string)) "smaller heap passes" []
    (Perf.failures (check_ok ~base:"base" ~fresh:"fresh" shrunk))

let test_check_missing_sections () =
  (* a section recorded at one stamp only is not compared *)
  let records =
    ingest_at "base" [ refs 100.0 ]
    @ ingest_at ~workload:"mix" "base" [ refs 50.0 ]
    @ ingest_at "fresh" [ refs 100.0 ]
  in
  let vs = check_ok ~base:"base" ~fresh:"fresh" records in
  Alcotest.(check (list string)) "only the shared section" [ "sweep/refs_per_s" ]
    (List.map (fun v -> v.Perf.section) vs);
  (* an absent stamp, and stamps sharing no declared section (records of
     the retired timers), are errors naming what is missing *)
  let error ~base ~fresh records =
    match Perf.check spec records ~base ~fresh with
    | Ok _ -> Alcotest.failf "%s vs %s: no error" base fresh
    | Error e -> e
  in
  Alcotest.(check bool) "absent stamp named" true
    (contains ~needle:"nope" (error ~base:"base" ~fresh:"nope" records));
  let legacy =
    [ mk_record [| 1.0 |]; { (mk_record [| 2.0 |]) with Ledger.git = "other" } ]
  in
  Alcotest.(check bool) "no comparable section" true
    (contains ~needle:"no BENCHMARK.json section"
       (error ~base:"deadbee" ~fresh:"other" legacy))

(* ---- 5. history rendering ---- *)

let test_render_history () =
  let records =
    [
      mk_record ~note:"old" [| 8.0 |];
      mk_record [| 10.0; 11.0; 12.0 |];
      mk_record ~section:"mix" [| 0.4; 0.5 |];
    ]
  in
  let s = Perf.render_history records ~skipped:1 in
  Alcotest.(check bool) "mentions single_domain" true
    (contains ~needle:"single_domain" s);
  Alcotest.(check bool) "mentions mix" true (contains ~needle:"mix" s);
  Alcotest.(check bool) "reports corrupt skips" true (contains ~needle:"1" s);
  let only_mix = Perf.render_history ~section:"mix" records ~skipped:0 in
  Alcotest.(check bool) "filter keeps mix" true (contains ~needle:"mix" only_mix);
  Alcotest.(check bool) "filter drops single_domain" false
    (contains ~needle:"single_domain" only_mix)

(* the newest stamp's records (one sample each, as ingest writes them)
   summarize to their median ± MAD, not to the last record's own MAD *)
let test_render_history_newest_stamp () =
  let records =
    ingest_at "old" [ refs 1.0 ]
    @ List.concat_map (fun v -> ingest_at "new" [ refs v ]) [ 10.0; 14.0; 11.0 ]
  in
  let s = Perf.render_history records ~skipped:0 in
  Alcotest.(check bool) "median ± MAD of the stamp's records" true
    (contains ~needle:"last 11 ± 1 refs/s (git new, 3 records)" s)

let test_render_history_known_filter () =
  let records =
    [
      mk_record [| 10.0; 11.0; 12.0 |];
      mk_record ~section:"old_renamed_section" [| 3.0 |];
      mk_record ~section:"old_renamed_section" [| 4.0 |];
    ]
  in
  let count ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else go (i + 1) (if String.sub hay i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  let s = Perf.render_history ~known:[ "single_domain"; "mix" ] records ~skipped:0 in
  Alcotest.(check bool) "known section rendered" true (contains ~needle:"single_domain" s);
  Alcotest.(check int) "stale section appears only in the skip summary, not as a strip" 1
    (count ~needle:"old_renamed_section" s);
  Alcotest.(check bool) "skip summary counts records" true
    (contains ~needle:"skipped 2 record(s)" s);
  (* no ?known: stale sections render as before (default unchanged) *)
  let all = Perf.render_history records ~skipped:0 in
  Alcotest.(check bool) "unfiltered still renders stale sections" true
    (contains ~needle:"old_renamed_section" all);
  Alcotest.(check bool) "unfiltered has no skip summary" false
    (contains ~needle:"not in the current bench set" all)

let test_render_history_filtered_to_nothing () =
  let records = [ mk_record ~section:"old_renamed_section" [| 3.0 |] ] in
  (* ledger holds only stale sections: say so instead of "empty" *)
  let s = Perf.render_history ~known:[ "single_domain" ] records ~skipped:0 in
  Alcotest.(check bool) "not reported as empty" false (contains ~needle:"ledger is empty" s);
  Alcotest.(check bool) "explains the filter" true
    (contains ~needle:"no records for any current bench section" s);
  Alcotest.(check bool) "names what the ledger holds" true
    (contains ~needle:"old_renamed_section" s);
  (* a --section miss gets the same treatment *)
  let s = Perf.render_history ~section:"nope" records ~skipped:0 in
  Alcotest.(check bool) "section miss explained" true
    (contains ~needle:"no records for section nope" s);
  (* a truly empty ledger still reads as empty *)
  Alcotest.(check bool) "empty ledger message kept" true
    (contains ~needle:"ledger is empty" (Perf.render_history [] ~skipped:0));
  (* the default filter is the repository's BENCHMARK.json: its
     workloads × metrics *)
  let spec =
    match Perf.spec_of_json (parse (In_channel.with_open_bin (Helpers.build_file [ "BENCHMARK.json" ]) In_channel.input_all)) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun sect ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a declared section" sect)
        true
        (List.mem sect (Perf.section_names spec)))
    [ "sweep/refs_per_s"; "mix/refs_per_s"; "replay/refs_per_s"; "mix/sched.reclaim_s" ];
  Alcotest.(check bool) "retired timer sections are not" false
    (List.mem "single_domain" (Perf.section_names spec))

(* ---- 6. git-stamp dirtiness ---- *)

let test_dirty_classification () =
  let dirty = Provenance.dirty_of_status in
  Alcotest.(check bool) "clean tree" false (dirty []);
  Alcotest.(check bool) "ledger and root BENCH_*.json only" false
    (dirty [ " M PERF_LEDGER.jsonl"; " M BENCH_mix.json"; "M  BENCH_figure2.json" ]);
  Alcotest.(check bool) "a source change" true (dirty [ " M PERF_LEDGER.jsonl"; " M lib/x.ml" ]);
  Alcotest.(check bool) "BENCH_*.json below the root" true (dirty [ " M golden/BENCH_x.json" ]);
  Alcotest.(check bool) "a deleted BENCH_*.json" false (dirty [ " D BENCH_old.json" ]);
  Alcotest.(check bool) "renamed into a bench artifact" true
    (dirty [ "R  src.ml -> BENCH_x.json" ])

(* End to end in a scratch repository: appending to the ledger and
   rewriting a root artifact keep the stamp clean; a source edit does
   not. *)
let test_git_stamp_ignores_ledger () =
  let dir = Filename.temp_dir "pcolor_stamp" "" in
  let write name s = Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc s) in
  let git args =
    let code =
      Sys.command
        (Filename.quote_command "git"
           ([ "-C"; dir; "-c"; "user.name=t"; "-c"; "user.email=t@example.com"; "-c";
              "commit.gpgsign=false" ]
           @ args)
           ~stdout:Filename.null ~stderr:Filename.null)
    in
    if code <> 0 then Alcotest.failf "git %s failed" (String.concat " " args)
  in
  let describe () =
    let cwd = Sys.getcwd () in
    Sys.chdir dir;
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) Provenance.git_describe
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () ->
      write "PERF_LEDGER.jsonl" "";
      write "BENCH_mix.json" "{}\n";
      write "src.ml" "let x = 1\n";
      git [ "init"; "-q" ];
      git [ "add"; "-A" ];
      git [ "commit"; "-q"; "-m"; "init" ];
      let clean = match describe () with Some s -> s | None -> Alcotest.fail "no stamp" in
      Alcotest.(check bool) "fresh commit is clean" false (String.ends_with ~suffix:"-dirty" clean);
      write "PERF_LEDGER.jsonl" "{\"section\":\"sweep/refs_per_s\",\"median\":1.0}\n";
      write "BENCH_mix.json" "{\"mixes\":[]}\n";
      Alcotest.(check (option string)) "ledger + artifact rewrite stay clean" (Some clean)
        (describe ());
      write "src.ml" "let x = 2\n";
      Alcotest.(check (option string)) "source edit is dirty" (Some (clean ^ "-dirty"))
        (describe ()))

let suite =
  [
    ( "perf.ledger",
      [
        Alcotest.test_case "append/load round-trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "corrupt lines skipped, counted" `Quick test_ledger_corrupt_lines;
        Alcotest.test_case "all-corrupt ledger: zero records, full count" `Quick
          test_ledger_corrupt_only;
        Alcotest.test_case "missing file is empty ledger" `Quick test_ledger_missing_file;
      ] );
    ( "perf.stat",
      [
        Alcotest.test_case "sign-test CI at n=1 is the point" `Quick test_stat_ci_n1;
        Alcotest.test_case "sign-test CI at n=2 is the full range" `Quick test_stat_ci_n2;
      ] );
    ( "perf.prof",
      [
        Alcotest.test_case "prof attached: artifact byte-identical" `Quick
          test_prof_off_byte_identity;
        Alcotest.test_case "prof off: allocation footprint stable" `Quick
          test_prof_off_no_allocation;
        Alcotest.test_case "prof on: engine phases bracketed" `Quick test_prof_on_records_phases;
        Alcotest.test_case "manual bracketing" `Quick test_prof_manual_bracketing;
      ] );
    ( "perf.ingest",
      [
        Alcotest.test_case "one record per metric" `Quick test_ingest_records;
        Alcotest.test_case "bad result lines rejected" `Quick test_ingest_rejects;
      ] );
    ( "perf.check",
      [
        Alcotest.test_case "interval baseline" `Quick test_check_interval_baseline;
        Alcotest.test_case "direction and per-layer metrics" `Quick
          test_check_direction_and_layers;
        Alcotest.test_case "missing sections reported" `Quick test_check_missing_sections;
      ] );
    ( "perf.provenance",
      [
        Alcotest.test_case "dirty classification" `Quick test_dirty_classification;
        Alcotest.test_case "git stamp ignores ledger and BENCH_*.json" `Quick
          test_git_stamp_ignores_ledger;
      ] );
    ( "perf.history",
      [
        Alcotest.test_case "sparkline trend render" `Quick test_render_history;
        Alcotest.test_case "newest stamp's median and MAD" `Quick test_render_history_newest_stamp;
        Alcotest.test_case "known-section filter summarizes stale records" `Quick
          test_render_history_known_filter;
        Alcotest.test_case "filtered-to-nothing says why" `Quick
          test_render_history_filtered_to_nothing;
      ] );
  ]
