(* Cycle-epoch timeline sampling contracts:

   - runs and interp engines emit the identical timeline section (the
     epoch checks sit at matching reference-stream points);
   - per-epoch delta rows sum exactly to the end-of-run aggregates
     (telescoping reconciliation, incl. the final partial flush);
   - attaching a sampler never perturbs the simulation itself;
   - the sampler's steady-state commit path allocates nothing on the
     minor heap;
   - a recorded tape replays to a byte-identical artifact under full
     observability (metrics + attribution + timeline), and to a
     byte-identical Chrome trace (spans, instants, counters);
   - malformed binary traces raise the typed {!Btrace.Error}, never a
     bare [Failure] or garbage counters (unit cases + corruption fuzz),
     including truncations around the codec's chunk boundaries and at
     every byte of a tape, retired v1/v2 headers and v1 record tags, and
     [pcolor replay] turns a bad header into exit 2 and one line;
   - tapes stay byte-identical to format v3 as first written (golden
     MD5s), decoding re-encodes a tape byte for byte, and random run
     sections (mispredicted records, prefetch words, zero and negative
     strides, maximal counts, records across a chunk edge) survive the
     writer and the decoder;
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
      let b = run Pcolor.Runtime.Engine.Runs in
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
      (setup ~policy:Run.Page_coloring ~prefetch:true ~obs:(obs_with_sampler ~full:true cfg)
         ~engine:Pcolor.Runtime.Engine.Runs ())
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
  let per_class prefix suffix f =
    List.map
      (fun cls -> (prefix ^ Mclass.to_string cls ^ suffix, agg (fun s -> f s cls)))
      Mclass.all
  in
  (* every per-CPU counter column, each read through its own record
     field rather than through the machine's column table *)
  let per_cpu =
    [
      ("instructions", agg (fun s -> s.M.instructions));
      ("l1_hits", agg (fun s -> s.M.l1_hits));
      ("l1_misses", agg (fun s -> s.M.l1_misses));
      ("l2_hits", agg (fun s -> s.M.l2_hits));
    ]
    @ per_class "l2_miss." "" (fun s cls -> Mclass.get s.M.l2_miss_counts cls)
    @ [ ("stall.onchip_cycles", agg (fun s -> s.M.stall_onchip)) ]
    @ per_class "stall." "_cycles" (fun s cls -> s.M.stall_by_class.(Mclass.index cls))
    @ [
        ("stall.prefetch_late_cycles", agg (fun s -> s.M.stall_pf_late));
        ("stall.prefetch_full_cycles", agg (fun s -> s.M.stall_pf_full));
        ("kernel_cycles", agg (fun s -> s.M.kernel_cycles));
        ("tlb_misses", agg (fun s -> s.M.tlb_misses));
        ("page_fault_cycles", agg (fun s -> s.M.page_fault_cycles));
        ("prefetch.issued", agg (fun s -> s.M.pf_issued));
        ("prefetch.dropped_tlb", agg (fun s -> s.M.pf_dropped_tlb));
        ("prefetch.useless", agg (fun s -> s.M.pf_useless));
        ("prefetch.useful", agg (fun s -> s.M.pf_useful));
      ]
  in
  Alcotest.(check int) "every per-CPU counter column checked" 24 (List.length per_cpu);
  Alcotest.(check int)
    "timeline width" (4 + 24 + 3 + Config.n_colors cfg) (Array.length cols);
  (* machine-wide bus categories reconcile too *)
  let data, wb, upg = Pcolor.Memsim.Bus.categories (M.bus machine) in
  let checks =
    per_cpu
    @ [ ("bus.data_cycles", data); ("bus.writeback_cycles", wb); ("bus.upgrade_cycles", upg) ]
  in
  let metrics = Option.get o.Run.metrics in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) ("sum " ^ name) expected (col_sum cols sums name);
      match List.assoc_opt ("memsim." ^ name) metrics with
      | Some (Metrics.Counter v) -> Alcotest.(check int) ("metric memsim." ^ name) expected v
      | _ -> Alcotest.fail ("no counter memsim." ^ name))
    checks

(* ---------- sampling must not perturb the simulation ---------- *)

let test_sampling_is_pure () =
  List.iter
    (fun engine ->
      let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
      let plain = Run.run (setup ~engine ()) in
      let sampled = Run.run (setup ~obs:(obs_with_sampler cfg) ~engine ()) in
      Alcotest.(check string) "report unchanged by sampling" (render plain) (render sampled))
    [ Pcolor.Runtime.Engine.Runs; Pcolor.Runtime.Engine.Interp ]

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

let record_tape ~path ?obs ?rows ?cols ?(prefetch = false) ?(provenance = "test") () =
  let s =
    setup ?obs ~policy:Run.Page_coloring ~prefetch ?rows ?cols ~engine:Pcolor.Runtime.Engine.Runs ()
  in
  let oc = open_out_bin path in
  let w =
    Btrace.create_writer oc
      {
        Btrace.bench = "fig4";
        machine = "tiny";
        n_cpus = 2;
        scale = 1;
        policy = "pc";
        prefetch;
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
  let s = setup ?obs ~policy:Run.Page_coloring ?rows ?cols ~engine:Pcolor.Runtime.Engine.Runs () in
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

(* The Chrome trace half of replay parity: a taped run and its replay
   emit the same JSONL byte for byte — metadata, phase spans, the
   prefetch-drops and bus-knee instants and the timeline counters.  The
   tiny machine's 8-entry TLB drops prefetches, and its narrow bus
   saturates, so both instants are exercised. *)
let test_replay_trace_identity () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let traced path =
    let sink = Pcolor.Obs.Trace.open_sink ~path in
    let obs =
      Pcolor.Obs.Ctx.create ~trace:(Pcolor.Obs.Trace.buffer sink)
        ~sampler:(M.sampler_for ~epoch_cycles cfg) ()
    in
    ( sink,
      setup ~obs ~policy:Run.Page_coloring ~prefetch:true ~engine:Pcolor.Runtime.Engine.Runs () )
  in
  let rec_trace = Filename.temp_file "pcolor_rec" ".json" in
  let rep_trace = Filename.temp_file "pcolor_rep" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ rec_trace; rep_trace ])
    (fun () ->
      with_tape (fun path ->
          let sink, s = traced rec_trace in
          let oc = open_out_bin path in
          let w =
            Btrace.create_writer oc
              {
                Btrace.bench = "fig4";
                machine = "tiny";
                n_cpus = 2;
                scale = 1;
                policy = "pc";
                prefetch = true;
                seed = s.Run.seed;
                cap = s.Run.cap;
                provenance = "test";
              }
          in
          ignore (Run.run ~recorder:(Btrace.recorder w) s);
          Btrace.finish w;
          close_out oc;
          Pcolor.Obs.Trace.close sink;
          let sink, s = traced rep_trace in
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> ignore (Btrace.replay (Btrace.open_reader ic) ~setup:s));
          Pcolor.Obs.Trace.close sink);
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let recorded = read rec_trace in
      Alcotest.(check string) "trace JSONL byte-identical" recorded (read rep_trace);
      let events = String.split_on_char '\n' recorded |> List.filter (( <> ) "") in
      List.iter
        (fun name ->
          let named l =
            match Json.parse l with
            | Ok ev -> Json.member "name" ev = Some (Json.Str name)
            | Error _ -> false
          in
          Alcotest.(check bool) (name ^ " instants occur") true (List.exists named events))
        [ "prefetch-drops"; "bus-knee" ])

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
      | Some (Btrace.Bad_version { found = 9; expected = 3 }) -> ()
      | _ -> Alcotest.fail "patched version byte must be Bad_version");
      Bytes.set versioned 4 '\002';
      (match opens_as_error (Bytes.to_string versioned) with
      | Some (Btrace.Bad_version { found = 2; expected = 3 }) -> ()
      | _ -> Alcotest.fail "a v2 header must be Bad_version");
      (* one CPU more than any machine may have *)
      let n_cpus = Pcolor.Memsim.Config.max_cpus + 1 in
      (match opens_as_error (header_only ~n_cpus ()) with
      | Some (Btrace.Corrupt msg) ->
        Alcotest.(check string) "cpu bound" (Printf.sprintf "header names %d CPUs" n_cpus) msg
      | _ -> Alcotest.failf "a header naming %d CPUs must be Corrupt" n_cpus);
      (* strip the END marker: replay must report a truncated stream *)
      with_tape (fun cut ->
          write_file cut (String.sub tape 0 (String.length tape - 1));
          match replay_tape ~path:cut () with
          | _ -> Alcotest.fail "END-stripped tape must not replay"
          | exception Btrace.Error (Btrace.Truncated _) -> ()))

(* ---------- retired formats v1 and v2 ---------- *)

(* Formats v1 (per-reference batch records) and v2 (unpredicted run
   records) are no longer read: a tape whose header says either is
   refused at open, before any event. *)
let test_btrace_v1_bad_version () =
  with_tape (fun path ->
      let _ = record_tape ~path () in
      let tape = Bytes.of_string (read_file path) in
      Bytes.set tape 4 '\001';
      (match opens_as_error (Bytes.to_string tape) with
      | Some (Btrace.Bad_version { found = 1; expected = 3 }) -> ()
      | _ -> Alcotest.fail "a v1 header must be Bad_version");
      Bytes.set tape 4 '\002';
      match opens_as_error (Bytes.to_string tape) with
      | Some (Btrace.Bad_version { found = 2; expected = 3 }) -> ()
      | _ -> Alcotest.fail "a v2 header must be Bad_version")

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

(* v1's SECTION (8) and BATCH (9) tags inside a v3 tape are unknown
   events, Corrupt like any other. *)
let test_btrace_v1_tags_corrupt () =
  let body =
    let tape = header_only () in
    String.sub tape 0 (String.length tape - 1)
  in
  List.iter
    (fun tag ->
      with_tape (fun path ->
          write_file path (body ^ String.make 1 (Char.chr tag) ^ "\000\000");
          match replay_tape ~path () with
          | _ -> Alcotest.failf "tag %d must not replay" tag
          | exception Btrace.Error (Btrace.Corrupt msg) ->
            Alcotest.(check string) "message" (Printf.sprintf "bad event tag %d" tag) msg))
    [ 8; 9 ]

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

(* ---------- phase markers against the window plan ---------- *)

module Engine = Pcolor.Runtime.Engine

(* [reencode ?header tape edit] decodes [tape] into a fresh writer
   through [edit] applied to the writer's recorder: a well-formed tape
   whose events are the edited ones, under the header [header] makes of
   the original. *)
let reencode ?(header = Fun.id) tape edit =
  let r = Btrace.open_string tape in
  with_tape (fun path ->
      let oc = open_out_bin path in
      let w = Btrace.create_writer oc (header (Btrace.header r)) in
      Btrace.decode r (edit (Btrace.recorder w));
      Btrace.finish w;
      close_out oc;
      read_file path)

(* Replay checks the tape's phase structure, not only its bytes: each
   edit below keeps every event well formed but breaks the bracket or
   the window, and must raise the typed error rather than finish with
   an occurrence's weighted totals missing. *)
let test_btrace_phase_structure () =
  let tape = with_tape (fun path -> ignore (record_tape ~path ()); read_file path) in
  let ends = ref 0 in
  ignore
    (reencode tape (fun rc ->
         { rc with Engine.rec_phase_end = (fun () -> incr ends; rc.Engine.rec_phase_end ()) }));
  let before_first_begin extra rc =
    let first = ref true in
    {
      rc with
      Engine.rec_phase_begin =
        (fun () ->
          if !first then extra rc;
          first := false;
          rc.Engine.rec_phase_begin ());
    }
  in
  let seen = ref 0 in
  let cases =
    [
      ( "final PHASE_END dropped",
        (fun rc ->
          {
            rc with
            Engine.rec_phase_end =
              (fun () ->
                incr seen;
                if !seen < !ends then rc.Engine.rec_phase_end ());
          }),
        fun c ->
          c = Btrace.Truncated "measured window incomplete (missing END marker)" );
      ( "nested PHASE_BEGIN",
        before_first_begin (fun rc -> rc.Engine.rec_phase_begin ()),
        ( = ) (Btrace.Corrupt "PHASE_BEGIN inside an open phase") );
      ( "PHASE_END before any PHASE_BEGIN",
        before_first_begin (fun rc -> rc.Engine.rec_phase_end ()),
        ( = ) (Btrace.Corrupt "PHASE_END without PHASE_BEGIN") );
      ( "RESET inside the warm-up pass",
        before_first_begin (fun rc -> rc.Engine.rec_reset ()),
        ( = ) (Btrace.Corrupt "RESET before the warm-up pass ended") );
    ]
  in
  Alcotest.(check bool) "the tape has phases" true (!ends > 1);
  List.iter
    (fun (label, edit, expected) ->
      with_tape (fun path ->
          write_file path (reencode tape edit);
          match replay_tape ~path () with
          | _ -> Alcotest.failf "%s: must not replay" label
          | exception Btrace.Error c ->
            if not (expected c) then
              Alcotest.failf "%s: wrong error %s" label (Btrace.corruption_message c)))
    cases

(* [pcolor replay] of [tape] must exit 2 with one stderr line naming
   the trace. *)
let check_replay_refused label tape =
  with_tape (fun path ->
      write_file path tape;
      let code, stderr = Helpers.run_cli [ "replay"; path ] in
      Alcotest.(check int) (label ^ ": exit code") 2 code;
      match String.split_on_char '\n' stderr with
      | [ line; "" ] ->
        Alcotest.(check bool) (label ^ ": names the trace") true
          (String.starts_with ~prefix:(path ^ ": ") line)
      | _ -> Alcotest.failf "%s: expected one stderr line, got %S" label stderr)

(* A recoloring round's page moves are not on the tape, so a
   page-coloring tape relabelled with a dynamic-recoloring header must
   be refused rather than replayed as a run that never recolored. *)
let test_replay_cli_dynamic_header () =
  let tape =
    with_tape (fun path ->
        let code, _ =
          Helpers.run_cli
            [ "record"; "tomcatv"; "-p"; "2"; "-s"; "64"; "--policy"; "pc"; "-o"; path ]
        in
        Alcotest.(check int) "record exit code" 0 code;
        read_file path)
  in
  check_replay_refused "dynamic(pc) header"
    (reencode ~header:(fun h -> { h with Btrace.policy = "dynamic(pc)" }) tape Fun.id)

let test_replay_cli_bad_header () =
  List.iter
    (fun (label, tape) -> check_replay_refused label tape)
    [
      ("unknown bench", header_only ~bench:"tomcatX" ());
      ("zero CPUs", header_only ~n_cpus:0 ());
      ("scale 3", header_only ~scale:3 ());
      (* a power of two the kernels are not written for *)
      ("scale 2", header_only ~scale:2 ());
    ]

(* ---------- pinned tape format ---------- *)

(* MD5s of tapes as format v3 first wrote them: a small one and a
   multi-chunk one (the chunk-boundary tests' tape).  The writer must
   keep producing them exactly: tapes already on disk and fresh ones
   stay byte-identical. *)
let test_btrace_golden_md5 () =
  List.iter
    (fun (label, rows, cols, md5) ->
      with_tape (fun path ->
          let _ = record_tape ~path ~rows ~cols () in
          Alcotest.(check string) label md5 (Digest.to_hex (Digest.file path))))
    [
      ("fig4 runs tape", 8, 128, "742e69bd328e817e07c8bdb89a68f3aa");
      ("multi-chunk runs tape", 128, 2048, "c2fd97b1adccd95a503c1cfbec88309c");
    ]

(* ---------- chunk boundaries ---------- *)

(* A tape of about 190 KiB: reads cross two refill boundaries
   mid-record. *)
let big_rows = 128

let big_cols = 2048

let record_big ~path ?obs ?provenance () =
  record_tape ~path ?obs ~rows:big_rows ~cols:big_cols ?provenance ()

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
   a fresh writer reproduces it byte for byte, across chunk
   boundaries. *)
let test_btrace_decode_roundtrip () =
  let tape = Lazy.force big_tape in
  let r = Btrace.open_string tape in
  with_tape (fun copy ->
      let oc = open_out_bin copy in
      let w = Btrace.create_writer oc (Btrace.header r) in
      Btrace.decode r (Btrace.recorder w);
      Btrace.finish w;
      close_out oc;
      Alcotest.(check bool) "re-encoded tape is identical" true (read_file copy = tape))

(* ---------- v3 run records ---------- *)

module Walker = Pcolor.Comp.Walker

(* The events a decoder hands a recorder, as data: each RUN_SECTION
   with its strides and each RUNS batch's records. *)
type event = Section of int * int array | Runs of int array

let capture events : Engine.recorder =
  {
    rec_run_section =
      (fun ~cpu ~nrefs ~instr_per_iter:_ ~extra_onchip_stall:_ ~strides ->
        events := Section (cpu, Array.sub strides 0 nrefs) :: !events);
    rec_runs = (fun b -> events := Runs (Array.sub b.Walker.data 0 b.Walker.len) :: !events);
    rec_tick = (fun ~cpu:_ _ -> ());
    rec_onchip = (fun ~cpu:_ _ -> ());
    rec_barrier = (fun _ -> ());
    rec_reset = (fun () -> ());
    rec_touch = (fun ~cpu:_ ~vpage:_ -> ());
    rec_phase_begin = (fun () -> ());
    rec_phase_end = (fun () -> ());
  }

(* One random run record: its count, whether it follows the walker's
   advance, fallback address words (used when it does not, or when the
   advance would go negative), and its prefetch words, all zero when
   [has_pf] is false. *)
let gen_record nrefs =
  QCheck.Gen.(
    let* count = frequency [ (1, return Walker.max_run_count); (6, int_range 1 8) ] in
    let* follows = frequency [ (3, return true); (1, return false) ] in
    let* words = array_repeat nrefs (int_bound ((1 lsl 40) - 1)) in
    let* has_pf = bool in
    let+ pfs = array_repeat nrefs (frequency [ (1, return 0); (2, int_range 1 4096) ]) in
    (count, follows, words, if has_pf then pfs else Array.make nrefs 0))

(* A section: cpu, strides (zero, small, large, negative) and records
   split over one or two RUNS batches at [cut]. *)
let gen_section =
  QCheck.Gen.(
    let* nrefs = int_range 1 4 in
    let* cpu = int_bound 1 in
    let* strides =
      array_repeat nrefs
        (frequency [ (1, return 0); (2, int_range (-64) 64); (1, int_range (-100_000) 100_000) ])
    in
    let* records = list_size (int_range 1 40) (gen_record nrefs) in
    let+ cut = int_bound (List.length records) in
    (cpu, strides, records, cut))

(* [section_events (cpu, strides, records, cut)] turns a generated
   section into the events the recorder is fed, in the
   {!Walker.fill_runs} layout, advancing followed records exactly as the
   walker would. *)
let section_events (cpu, strides, records, cut) =
  let nrefs = Array.length strides in
  let head = Array.make nrefs 0 and prev_count = ref 0 in
  let record (count, follows, words, pfs) =
    let advanced = Array.mapi (fun r w -> w + ((strides.(r) * !prev_count) lsl 1)) head in
    let heads = if follows && Array.for_all (fun w -> w >= 0) advanced then advanced else words in
    Array.blit heads 0 head 0 nrefs;
    prev_count := count;
    Array.concat (List.init nrefs (fun r -> [| heads.(r); pfs.(r) |])) |> Array.append [| count |]
  in
  let encoded = List.map record records in
  let batches =
    List.filter (( <> ) [||])
      [
        Array.concat (List.filteri (fun i _ -> i < cut) encoded);
        Array.concat (List.filteri (fun i _ -> i >= cut) encoded);
      ]
  in
  Section (cpu, strides) :: List.map (fun b -> Runs b) batches

(* [record_events ?provenance events] is the tape of [events], fed to
   {!Btrace.recorder} as the engine would. *)
let record_events ?(provenance = "") events =
  with_tape (fun path ->
      let oc = open_out_bin path in
      let w =
        Btrace.create_writer oc
          {
            Btrace.bench = "fig4";
            machine = "tiny";
            n_cpus = 2;
            scale = 1;
            policy = "pc";
            prefetch = true;
            seed = 0;
            cap = 1;
            provenance;
          }
      in
      let rc = Btrace.recorder w in
      List.iter
        (function
          | Section (cpu, strides) ->
            rc.rec_run_section ~cpu ~nrefs:(Array.length strides) ~instr_per_iter:4
              ~extra_onchip_stall:0 ~strides
          | Runs data -> rc.rec_runs { Walker.data = Array.copy data; len = Array.length data })
        events;
      Btrace.finish w;
      close_out oc;
      read_file path)

(* Random sections recorded by {!Btrace.recorder} decode to the same
   events.  The provenance string pads the header so that a chunk edge
   falls inside the records, and the tape is read from a channel, so
   the decoder refills its window mid-record. *)
let test_btrace_records_roundtrip =
  QCheck.Test.make ~name:"random run sections survive record and decode" ~count:60
    QCheck.(
      make
        Gen.(pair (list_size (int_range 1 4) gen_section) (int_range 0 3000)))
    (fun (sections, pad) ->
      let events = List.concat_map section_events sections in
      let tape = record_events ~provenance:(String.make (Btrace.chunk_bytes - pad) 'x') events in
      with_tape (fun path ->
          write_file path tape;
          let decoded = ref [] in
          In_channel.with_open_bin path (fun ic ->
              Btrace.decode (Btrace.open_reader ic) (capture decoded));
          List.rev !decoded = events))

(* A record whose address word comes out negative is Corrupt, whether
   the word is predicted (the stride walks below zero) or carries a
   residual, and so is a repeat count outside [1, max_run_count]. *)
let test_btrace_record_bounds () =
  let too_long = Walker.max_run_count + 1 in
  List.iter
    (fun (label, second, expected) ->
      let tape = record_events [ Section (0, [| -1 |]); Runs (Array.append [| 1; 0; 0 |] second) ] in
      match Btrace.decode (Btrace.open_string tape) (capture (ref [])) with
      | () -> Alcotest.failf "%s: decoded" label
      | exception Btrace.Error (Btrace.Corrupt msg) -> Alcotest.(check string) label expected msg)
    [
      ("predicted negative", [| 1; -2; 0 |], "negative reference address");
      ("explicit negative", [| 1; -6; 0 |], "negative reference address");
      ("zero count", [| 0; 8; 0 |], "run count 0 out of bounds");
      ( "count past the bound",
        [| too_long; 8; 0 |],
        Printf.sprintf "run count %d out of bounds" too_long );
    ]

(* Every prefix of a prefetching tape fails as a typed truncation or
   corruption, at open or in the decoder, never with another
   exception. *)
let test_btrace_every_prefix () =
  let tape = with_tape (fun path -> ignore (record_tape ~path ~prefetch:true ()); read_file path) in
  let null = capture (ref []) in
  for len = 0 to String.length tape - 1 do
    match Btrace.decode (Btrace.open_string (String.sub tape 0 len)) null with
    | () -> Alcotest.failf "the %d-byte prefix decoded" len
    | exception Btrace.Error (Btrace.Truncated _ | Btrace.Corrupt _) -> ()
    | exception e -> Alcotest.failf "the %d-byte prefix raised %s" len (Printexc.to_string e)
  done

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
        Alcotest.test_case "record/replay trace identity" `Quick test_replay_trace_identity;
        Alcotest.test_case "typed btrace errors" `Quick test_btrace_error_paths;
        Alcotest.test_case "v1 header is Bad_version" `Quick test_btrace_v1_bad_version;
        Alcotest.test_case "v1 record tags are corrupt" `Quick test_btrace_v1_tags_corrupt;
        QCheck_alcotest.to_alcotest test_btrace_corruption_fuzz;
        Alcotest.test_case "bad header fields are corrupt" `Quick test_btrace_bad_header_corrupt;
        Alcotest.test_case "replay CLI rejects bad headers" `Quick test_replay_cli_bad_header;
        Alcotest.test_case "replay CLI rejects dynamic-recoloring tapes" `Quick
          test_replay_cli_dynamic_header;
        Alcotest.test_case "overlong varint is corrupt" `Quick test_btrace_varint_overflow;
        Alcotest.test_case "phase markers must match the window" `Quick
          test_btrace_phase_structure;
        Alcotest.test_case "tape format pinned by MD5" `Quick test_btrace_golden_md5;
        Alcotest.test_case "truncation around a chunk edge" `Quick
          test_btrace_truncation_window;
        QCheck_alcotest.to_alcotest test_btrace_truncation_fuzz;
        Alcotest.test_case "varint split across chunks" `Quick test_btrace_varint_split;
        Alcotest.test_case "decode re-encodes identically" `Quick test_btrace_decode_roundtrip;
        QCheck_alcotest.to_alcotest test_btrace_records_roundtrip;
        Alcotest.test_case "negative addresses and bad counts are corrupt" `Quick
          test_btrace_record_bounds;
        Alcotest.test_case "every tape prefix is Truncated or Corrupt" `Quick
          test_btrace_every_prefix;
        Alcotest.test_case "change-point on a clean step" `Quick test_detect_step;
        Alcotest.test_case "no change-point on flat series" `Quick test_detect_flat;
        Alcotest.test_case "2-job mix timeline" `Quick test_mix_timeline;
      ] );
  ]
