(* Cycle-epoch timeline sampling contracts:

   - batch and interp engines emit the identical timeline section (the
     epoch checks sit at matching reference-stream points);
   - per-epoch delta rows sum exactly to the end-of-run aggregates
     (telescoping reconciliation, incl. the final partial flush);
   - attaching a sampler never perturbs the simulation itself;
   - the sampler's steady-state commit path allocates nothing on the
     minor heap;
   - a recorded tape replays to a byte-identical artifact under full
     observability (metrics + attribution + timeline);
   - malformed binary traces raise the typed {!Btrace.Error}, never a
     bare [Failure] or garbage counters (unit cases + corruption fuzz),
     including truncations around the codec's chunk boundaries, and
     [pcolor replay] turns a bad header into exit 2 and one line;
   - tapes stay byte-identical to format v2 as first written (golden
     MD5s), and decoding re-encodes a tape byte for byte;
   - the change-point detector finds a clean mean shift;
   - a 2-job gang mix yields per-job rows, switch events and a
     reconciling timeline. *)

module M = Pcolor.Memsim.Machine
module Config = Pcolor.Memsim.Config
module Mclass = Pcolor.Memsim.Mclass
module Run = Pcolor.Runtime.Run
module Btrace = Pcolor.Runtime.Btrace
module Sampler = Pcolor.Obs.Sampler
module Phases = Pcolor.Stats.Phases
module Json = Pcolor.Obs.Json
module Metrics = Pcolor.Obs.Metrics
module Report = Pcolor.Stats.Report

let epoch_cycles = 5_000

let obs_with_sampler ?(epoch_cycles = epoch_cycles) ?(full = false) cfg =
  let sampler = M.sampler_for ~epoch_cycles cfg in
  if full then
    let metrics = Metrics.create () in
    let attrib =
      Pcolor.Obs.Attrib.create ~n_colors:(Config.n_colors cfg)
        ~n_classes:(List.length Mclass.all) ()
    in
    Pcolor.Obs.Ctx.create ~metrics ~attrib ~sampler ()
  else Pcolor.Obs.Ctx.create ~sampler ()

let setup ?(policy = Run.Page_coloring) ?(prefetch = false) ?obs ?rows ?cols ~engine () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let base =
    {
      (Run.default_setup ~cfg
         ~make_program:(fun () -> Helpers.figure4_program ?rows ?cols ())
         ~policy)
      with
      prefetch;
      engine;
    }
  in
  match obs with None -> base | Some obs -> { base with obs }

let timeline_string (o : Run.outcome) =
  match M.timeline_json o.Run.machine with
  | Some j -> Json.to_string j
  | None -> Alcotest.fail "no timeline on a sampled run"

let render (o : Run.outcome) = Format.asprintf "%a" Report.pp o.Run.report

(* ---------- engine identity ---------- *)

let test_engines_identical_timeline () =
  List.iter
    (fun (policy, prefetch) ->
      let run engine =
        let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
        Run.run (setup ~policy ~prefetch ~obs:(obs_with_sampler cfg) ~engine ())
      in
      let b = run Pcolor.Runtime.Engine.Batch in
      let i = run Pcolor.Runtime.Engine.Interp in
      let label = Run.policy_name policy ^ if prefetch then "+pf" else "" in
      Alcotest.(check string) (label ^ " timeline") (timeline_string i) (timeline_string b);
      Alcotest.(check bool)
        (label ^ " non-empty")
        true
        ((Option.get (M.sampler b.Run.machine) |> Sampler.n_rows) > 0))
    [
      (Run.Page_coloring, false);
      (Run.Page_coloring, true);
      (Run.Cdpc { fallback = `Page_coloring; via_touch = false }, false);
      (Run.Bin_hopping, true);
    ]

(* ---------- reconciliation: delta rows sum to aggregates ---------- *)

let column_sums (o : Run.outcome) =
  let sm = Option.get (M.sampler o.Run.machine) in
  let cols = Array.of_list (M.timeline_columns o.Run.machine) in
  let sums = Array.make (Array.length cols) 0 in
  Sampler.iter_rows sm (fun row ->
      for c = 4 to Array.length cols - 1 do
        sums.(c) <- sums.(c) + Sampler.cell sm ~row ~col:c
      done);
  (cols, sums)

let col_sum (cols : string array) sums name =
  let found = ref None in
  Array.iteri (fun i c -> if c = name then found := Some sums.(i)) cols;
  match !found with Some v -> v | None -> Alcotest.fail ("missing column " ^ name)

let test_reconciliation () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let o =
    Run.run
      (setup ~policy:Run.Page_coloring ~prefetch:true ~obs:(obs_with_sampler cfg)
         ~engine:Pcolor.Runtime.Engine.Batch ())
  in
  let machine = o.Run.machine in
  let cols, sums = column_sums o in
  let agg f =
    let t = ref 0 in
    for cpu = 0 to 1 do
      t := !t + f (M.stats machine ~cpu)
    done;
    !t
  in
  let checks =
    [
      ("instructions", agg (fun s -> s.M.instructions));
      ("l1_hits", agg (fun s -> s.M.l1_hits));
      ("l1_misses", agg (fun s -> s.M.l1_misses));
      ("l2_hits", agg (fun s -> s.M.l2_hits));
      ("tlb_misses", agg (fun s -> s.M.tlb_misses));
      ("kernel_cycles", agg (fun s -> s.M.kernel_cycles));
      ("prefetch.issued", agg (fun s -> s.M.pf_issued));
      ("prefetch.useful", agg (fun s -> s.M.pf_useful));
    ]
    @ List.map
        (fun cls ->
          ( "l2_miss." ^ Mclass.to_string cls,
            agg (fun s -> Mclass.get s.M.l2_miss_counts cls) ))
        Mclass.all
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) ("sum " ^ name) expected (col_sum cols sums name))
    checks;
  (* machine-wide bus categories reconcile too *)
  let data, wb, upg = Pcolor.Memsim.Bus.categories (M.bus machine) in
  Alcotest.(check int) "bus.data" data (col_sum cols sums "bus.data_cycles");
  Alcotest.(check int) "bus.wb" wb (col_sum cols sums "bus.writeback_cycles");
  Alcotest.(check int) "bus.upg" upg (col_sum cols sums "bus.upgrade_cycles")

(* ---------- sampling must not perturb the simulation ---------- *)

let test_sampling_is_pure () =
  List.iter
    (fun engine ->
      let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
      let plain = Run.run (setup ~engine ()) in
      let sampled = Run.run (setup ~obs:(obs_with_sampler cfg) ~engine ()) in
      Alcotest.(check string) "report unchanged by sampling" (render plain) (render sampled))
    [ Pcolor.Runtime.Engine.Batch; Pcolor.Runtime.Engine.Interp ]

(* ---------- steady-state commit allocates nothing ---------- *)

let test_sampler_zero_alloc () =
  let sm = Sampler.create ~epoch_cycles:1_000 ~n_cpus:2 ~n_counters:24 ~n_global:7 () in
  let scratch = Sampler.scratch sm in
  let commit cpu time =
    for i = 0 to Array.length scratch - 1 do
      scratch.(i) <- scratch.(i) + i
    done;
    Sampler.commit sm ~cpu ~time
  in
  for t = 1 to 16 do
    commit (t land 1) (t * 1_000)
  done;
  let before = Gc.minor_words () in
  for t = 17 to 416 do
    commit (t land 1) (t * 1_000)
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "commit allocation-free (%.0f minor words over 400 rows)" delta)
    true (delta <= 64.0);
  Alcotest.(check int) "all rows kept" (16 + 400) (Sampler.n_rows sm)

let test_sampler_dimension_check () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let wrong = Sampler.create ~n_cpus:1 ~n_counters:3 ~n_global:1 () in
  let obs = Pcolor.Obs.Ctx.create ~sampler:wrong () in
  Alcotest.check_raises "mismatched sampler rejected"
    (Invalid_argument
       "Machine.create: sampler dimensions do not match the machine (use sampler_for)")
    (fun () -> ignore (M.create ~obs cfg))

(* ---------- record -> replay artifact identity ---------- *)

let with_tape f =
  let path = Filename.temp_file "pcolor_tl" ".btrace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let record_tape ~path ?obs ?(engine = Pcolor.Runtime.Engine.Batch) ?rows ?cols
    ?(provenance = "test") () =
  let s = setup ?obs ~policy:Run.Page_coloring ?rows ?cols ~engine () in
  let oc = open_out_bin path in
  let w =
    Btrace.create_writer oc
      {
        Btrace.bench = "fig4";
        machine = "tiny";
        n_cpus = 2;
        scale = 1;
        policy = "pc";
        prefetch = false;
        seed = s.Run.seed;
        cap = s.Run.cap;
        provenance;
      }
  in
  let o = Run.run ~recorder:(Btrace.recorder w) s in
  Btrace.finish w;
  close_out oc;
  (s, o)

let replay_tape ~path ?obs ?rows ?cols () =
  let s = setup ?obs ~policy:Run.Page_coloring ?rows ?cols ~engine:Pcolor.Runtime.Engine.Batch () in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Btrace.replay (Btrace.open_reader ic) ~setup:s)

let test_replay_artifact_identity () =
  with_tape (fun path ->
      let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
      let _, direct = record_tape ~path ~obs:(obs_with_sampler ~full:true cfg) () in
      let replayed = replay_tape ~path ~obs:(obs_with_sampler ~full:true cfg) () in
      Alcotest.(check string) "artifacts byte-identical"
        (Json.to_string (Run.artifact_json direct))
        (Json.to_string (Run.artifact_json replayed));
      Alcotest.(check bool) "replay carries metrics" true (replayed.Run.metrics <> None);
      Alcotest.(check bool) "replay carries attribution" true (replayed.Run.attrib <> None))

(* ---------- typed corruption errors ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let opens_as_error s =
  with_tape (fun path ->
      write_file path s;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match Btrace.open_reader ic with
          | _ -> None
          | exception Btrace.Error c -> Some c))

let test_btrace_error_paths () =
  (* a valid tape to mutate *)
  with_tape (fun path ->
      let _ = record_tape ~path () in
      let tape = read_file path in
      (match opens_as_error "" with
      | Some (Btrace.Truncated _) -> ()
      | _ -> Alcotest.fail "empty file must be Truncated");
      (match opens_as_error "NOPE-this-is-not-a-trace" with
      | Some (Btrace.Bad_magic m) -> Alcotest.(check string) "magic payload" "NOPE" m
      | _ -> Alcotest.fail "bad magic must be Bad_magic");
      (match opens_as_error (String.sub tape 0 3) with
      | Some (Btrace.Truncated region) -> Alcotest.(check string) "region" "header" region
      | _ -> Alcotest.fail "3-byte file must be Truncated header");
      let versioned = Bytes.of_string tape in
      Bytes.set versioned 4 '\009';
      (match opens_as_error (Bytes.to_string versioned) with
      | Some (Btrace.Bad_version { found = 9; expected = 2 }) -> ()
      | _ -> Alcotest.fail "patched version byte must be Bad_version");
      (* strip the END marker: replay must report a truncated stream *)
      with_tape (fun cut ->
          write_file cut (String.sub tape 0 (String.length tape - 1));
          match replay_tape ~path:cut () with
          | _ -> Alcotest.fail "END-stripped tape must not replay"
          | exception Btrace.Error (Btrace.Truncated _) -> ()))

(* ---------- version negotiation ---------- *)

(* A batch-engine tape contains only v1 events, so rewriting its
   version byte to 1 yields a genuine v1 tape.  The runs-first reader
   must accept it and transparently degrade to per-reference
   consumption — same counters, no error. *)
let test_btrace_v1_degrade () =
  with_tape (fun path ->
      let _, direct = record_tape ~path () in
      let tape = Bytes.of_string (read_file path) in
      Bytes.set tape 4 '\001';
      with_tape (fun v1 ->
          write_file v1 (Bytes.to_string tape);
          let ic = open_in_bin v1 in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let r = Btrace.open_reader ic in
              Alcotest.(check int) "format_version" 1 (Btrace.format_version r);
              let s = setup ~policy:Run.Page_coloring ~engine:Pcolor.Runtime.Engine.Runs () in
              let replayed = Btrace.replay r ~setup:s in
              Alcotest.(check string) "v1 tape replays to the identical artifact"
                (Json.to_string (Run.artifact_json direct))
                (Json.to_string (Run.artifact_json replayed)))))

(* The converse must stay an error: run-coalesced records inside a tape
   whose header claims v1 are structurally invalid, and the reader
   reports them as typed corruption rather than consuming them. *)
let test_btrace_v1_run_records_corrupt () =
  with_tape (fun path ->
      let _ = record_tape ~path ~engine:Pcolor.Runtime.Engine.Runs () in
      let tape = Bytes.of_string (read_file path) in
      Bytes.set tape 4 '\001';
      with_tape (fun bad ->
          write_file bad (Bytes.to_string tape);
          match replay_tape ~path:bad () with
          | _ -> Alcotest.fail "run records in a v1 tape must be Corrupt"
          | exception Btrace.Error (Btrace.Corrupt msg) ->
            Alcotest.(check string) "corruption message" "run section in a v1 trace" msg))

let test_btrace_corruption_fuzz =
  QCheck.Test.make ~name:"corrupted tapes raise Btrace.Error or replay" ~count:40
    QCheck.(pair small_nat (int_bound 255))
    (fun (pos_seed, byte) ->
      with_tape (fun path ->
          let _ = record_tape ~path () in
          let tape = Bytes.of_string (read_file path) in
          (* corrupt one byte anywhere past the magic *)
          let pos = 4 + (pos_seed * 131) mod (Bytes.length tape - 4) in
          Bytes.set tape pos (Char.chr byte);
          with_tape (fun bad ->
              write_file bad (Bytes.to_string tape);
              match replay_tape ~path:bad () with
              | _ -> true
              | exception Btrace.Error _ -> true
              | exception _ -> false)))

(* ---------- bad header fields ---------- *)

(* A tape that ends right after its header: enough for [open_reader]
   and for [pcolor replay] to judge the header. *)
let header_only ?(bench = "tomcatv") ?(n_cpus = 2) ?(scale = 64) ?(cap = 2) () =
  with_tape (fun path ->
      let oc = open_out_bin path in
      let w =
        Btrace.create_writer oc
          {
            Btrace.bench;
            machine = "sgi";
            n_cpus;
            scale;
            policy = "page-coloring";
            prefetch = false;
            seed = 0;
            cap;
            provenance = "";
          }
      in
      Btrace.finish w;
      close_out oc;
      read_file path)

let test_btrace_bad_header_corrupt () =
  List.iter
    (fun (label, tape) ->
      match opens_as_error tape with
      | Some (Btrace.Corrupt _) -> ()
      | _ -> Alcotest.failf "%s must be Corrupt at open" label)
    [
      ("zero CPUs", header_only ~n_cpus:0 ());
      ("scale 3", header_only ~scale:3 ());
      ("scale 0", header_only ~scale:0 ());
      ("window cap 0", header_only ~cap:0 ());
    ]

(* A varint running past 63 bits is Corrupt, not a wrapped value. *)
let test_btrace_varint_overflow () =
  let tape = header_only () in
  (* drop the END marker; append TICK cpu 0 with a ten-byte count *)
  let body = String.sub tape 0 (String.length tape - 1) in
  with_tape (fun path ->
      write_file path (body ^ "\001\000" ^ String.make 9 '\255' ^ "\001\000");
      match replay_tape ~path () with
      | _ -> Alcotest.fail "an overlong varint must not replay"
      | exception Btrace.Error (Btrace.Corrupt msg) ->
        Alcotest.(check string) "message" "varint wider than 63 bits" msg)

let test_replay_cli_bad_header () =
  List.iter
    (fun (label, tape) ->
      with_tape (fun path ->
          write_file path tape;
          let code, stderr = Helpers.run_cli [ "replay"; path ] in
          Alcotest.(check int) (label ^ ": exit code") 2 code;
          match String.split_on_char '\n' stderr with
          | [ line; "" ] ->
            Alcotest.(check bool) (label ^ ": names the trace") true
              (String.starts_with ~prefix:(path ^ ": ") line)
          | _ -> Alcotest.failf "%s: expected one stderr line, got %S" label stderr))
    [
      ("unknown bench", header_only ~bench:"tomcatX" ());
      ("zero CPUs", header_only ~n_cpus:0 ());
      ("scale 3", header_only ~scale:3 ());
      (* a power of two the kernels are not written for *)
      ("scale 2", header_only ~scale:2 ());
    ]

(* ---------- pinned tape format ---------- *)

(* MD5s of tapes written by the per-byte channel writer that defined
   format v2.  The writer must keep producing them exactly: tapes
   already on disk and fresh ones stay byte-identical. *)
let test_btrace_golden_md5 () =
  List.iter
    (fun (label, engine, rows, cols, md5) ->
      with_tape (fun path ->
          let _ = record_tape ~path ~engine ~rows ~cols () in
          Alcotest.(check string) label md5 (Digest.to_hex (Digest.file path))))
    Pcolor.Runtime.Engine.
      [
        ("fig4 batch tape", Batch, 8, 128, "5ad59db95c303b7a0849a3649db71e2d");
        ("fig4 runs tape", Runs, 8, 128, "fb28b6aded280e76f74098174c4fce93");
        ("multi-chunk batch tape", Batch, 32, 512, "4256e4a9e19e9da82af9d7edbce6b64d");
      ]

(* ---------- chunk boundaries ---------- *)

(* A batch tape of about 190 KiB: reads cross two refill boundaries
   mid-record. *)
let big_rows = 32

let big_cols = 512

let record_big ~path ?obs ?engine ?provenance () =
  record_tape ~path ?obs ?engine ~rows:big_rows ~cols:big_cols ?provenance ()

let replay_big ~path ?obs () = replay_tape ~path ?obs ~rows:big_rows ~cols:big_cols ()

let big_tape = lazy (with_tape (fun path -> ignore (record_big ~path ()); read_file path))

(* [None] when the [len]-byte prefix of [tape] fails as it must *)
let cut_escapes tape len =
  with_tape (fun cut ->
      write_file cut (String.sub tape 0 len);
      match replay_big ~path:cut () with
      | _ -> Some "replayed without an END marker"
      | exception Btrace.Error (Btrace.Truncated _ | Btrace.Corrupt _) -> None
      | exception e -> Some (Printexc.to_string e))

let test_btrace_truncation_window () =
  let tape = Lazy.force big_tape in
  let b = Btrace.chunk_bytes in
  Alcotest.(check bool) "tape spans several chunks" true (String.length tape > 2 * b);
  for len = b - 40 to b + 40 do
    Option.iter (Alcotest.failf "tape cut at byte %d: %s" len) (cut_escapes tape len)
  done

let test_btrace_truncation_fuzz =
  QCheck.Test.make ~name:"truncated tapes raise Truncated or Corrupt" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let tape = Lazy.force big_tape in
      let len = seed mod String.length tape in
      match cut_escapes tape len with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "tape cut at byte %d: %s" len what)

(* Pad the header so that a multi-byte varint straddles the first
   refill boundary; the replay must still be exact. *)
let test_btrace_varint_split () =
  let tape = Lazy.force big_tape in
  let b = Btrace.chunk_bytes in
  (* a continuation byte (high bit set) just before the boundary: the
     next byte belongs to the same varint.  Tags and kind codes never
     set the high bit, and header strings here are ASCII. *)
  let rec continuation p =
    if p < 64 then Alcotest.fail "no multi-byte varint in the first chunk"
    else if Char.code tape.[p] >= 0x80 then p
    else continuation (p - 1)
  in
  (* the provenance string and its length prefix replace the 5 bytes of
     "test", moved [shift] bytes further *)
  let target = b - 1 - continuation (b - 1) + 5 in
  let rec prefix_bytes n = if n < 0x80 then 1 else 1 + prefix_bytes (n lsr 7) in
  let rec padded len =
    if len < 0 then Alcotest.fail "no padding lands the varint on the boundary"
    else if len + prefix_bytes len = target then len
    else padded (len - 1)
  in
  let provenance = String.make (padded target) 'x' in
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  with_tape (fun path ->
      let _, direct = record_big ~path ~obs:(obs_with_sampler ~full:true cfg) ~provenance () in
      let shifted = read_file path in
      Alcotest.(check bool) "a varint continues across the boundary" true
        (Char.code shifted.[b - 1] >= 0x80);
      let replayed = replay_big ~path ~obs:(obs_with_sampler ~full:true cfg) () in
      Alcotest.(check string) "artifacts byte-identical"
        (Json.to_string (Run.artifact_json direct))
        (Json.to_string (Run.artifact_json replayed)))

(* The decoder is the writer's inverse: decoding an in-memory tape into
   a fresh writer reproduces it byte for byte, across chunk boundaries
   and for both record families. *)
let test_btrace_decode_roundtrip () =
  List.iter
    (fun engine ->
      with_tape (fun path ->
          let _ = record_big ~path ~engine () in
          let tape = read_file path in
          let r = Btrace.open_string tape in
          with_tape (fun copy ->
              let oc = open_out_bin copy in
              let w = Btrace.create_writer oc (Btrace.header r) in
              Btrace.decode r (Btrace.recorder w);
              Btrace.finish w;
              close_out oc;
              Alcotest.(check bool) "re-encoded tape is identical" true (read_file copy = tape))))
    Pcolor.Runtime.Engine.[ Batch; Runs ]

(* ---------- change-point detection ---------- *)

let test_detect_step () =
  let s = Array.init 40 (fun i -> if i < 20 then 10.0 else 50.0) in
  match Phases.detect ~window:4 s with
  | [ c ] ->
    Alcotest.(check int) "change epoch" 20 c.Phases.epoch;
    Alcotest.(check bool) "direction" true (c.Phases.after > c.Phases.before)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 change, got %d" (List.length l))

let test_detect_flat () =
  let s = Array.make 40 7.0 in
  Alcotest.(check int) "no change on flat series" 0 (List.length (Phases.detect s))

(* ---------- 2-job mix timeline ---------- *)

let test_mix_timeline () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let obs = obs_with_sampler ~epoch_cycles:2_000 cfg in
  let sched =
    { Pcolor.Sched.Scheduler.policy = Gang; quantum = 20_000; switch_cost = 1_000; tlb = Asid }
  in
  let spec name =
    Pcolor.Sched.Job.spec ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = false })
      ~name (fun () -> Helpers.figure4_program ())
  in
  let mix = Pcolor.Sched.Mix.run ~cfg ~sched ~obs [ spec "a"; spec "b" ] in
  let artifact = Pcolor.Sched.Mix.artifact_json mix in
  match Phases.of_artifact artifact with
  | Error msg -> Alcotest.fail msg
  | Ok tl ->
    Alcotest.(check (list int)) "both jobs appear in rows" [ 0; 1 ] (Phases.jobs tl);
    Alcotest.(check bool)
      "gang switches recorded" true
      (Array.length tl.Phases.events > 0);
    (* mix timeline reconciles against the shared machine's aggregates *)
    let machine = mix.Pcolor.Sched.Mix.machine in
    let instr = ref 0 in
    for cpu = 0 to 1 do
      instr := !instr + (M.stats machine ~cpu).M.instructions
    done;
    let icol =
      match Phases.col tl "instructions" with Some i -> i | None -> Alcotest.fail "no column"
    in
    let sum = Array.fold_left (fun acc r -> acc + r.(icol)) 0 tl.Phases.rows in
    Alcotest.(check int) "mix instructions reconcile" !instr sum

let suite =
  [
    ( "timeline",
      [
        Alcotest.test_case "engines emit identical timelines" `Quick
          test_engines_identical_timeline;
        Alcotest.test_case "rows reconcile with aggregates" `Quick test_reconciliation;
        Alcotest.test_case "sampling does not perturb the run" `Quick test_sampling_is_pure;
        Alcotest.test_case "steady-state commit zero-alloc" `Quick test_sampler_zero_alloc;
        Alcotest.test_case "mismatched sampler rejected" `Quick test_sampler_dimension_check;
        Alcotest.test_case "record/replay artifact identity" `Quick
          test_replay_artifact_identity;
        Alcotest.test_case "typed btrace errors" `Quick test_btrace_error_paths;
        Alcotest.test_case "v1 tape degrades transparently" `Quick test_btrace_v1_degrade;
        Alcotest.test_case "run records in v1 tape are corrupt" `Quick
          test_btrace_v1_run_records_corrupt;
        QCheck_alcotest.to_alcotest test_btrace_corruption_fuzz;
        Alcotest.test_case "bad header fields are corrupt" `Quick test_btrace_bad_header_corrupt;
        Alcotest.test_case "replay CLI rejects bad headers" `Quick test_replay_cli_bad_header;
        Alcotest.test_case "overlong varint is corrupt" `Quick test_btrace_varint_overflow;
        Alcotest.test_case "tape format pinned by MD5" `Quick test_btrace_golden_md5;
        Alcotest.test_case "truncation around a chunk edge" `Quick
          test_btrace_truncation_window;
        QCheck_alcotest.to_alcotest test_btrace_truncation_fuzz;
        Alcotest.test_case "varint split across chunks" `Quick test_btrace_varint_split;
        Alcotest.test_case "decode re-encodes identically" `Quick test_btrace_decode_roundtrip;
        Alcotest.test_case "change-point on a clean step" `Quick test_detect_step;
        Alcotest.test_case "no change-point on flat series" `Quick test_detect_flat;
        Alcotest.test_case "2-job mix timeline" `Quick test_mix_timeline;
      ] );
  ]
