(* Simulator-throughput microbenchmark.

   Four measurements, all written to BENCH_throughput.json so the
   numbers are tracked across PRs:

   1. single-domain: simulated references per wall-clock second on one
      domain with the default (runs) engine — the Layer-2 hot-path
      headline number;
   2. engines: the same workload pair on both reference-stream engines
      (interp / runs), so the walker's gain over the interpreter oracle
      is tracked;
   3. replay: the pair recorded to a binary trace (format v2,
      run-coalesced records) and re-simulated off the tape — the
      consumption-only rate with walker generation off the clock;
   4. scale-256: the pair at the smoke scale, where arrays are small
      enough for run tails to survive in L1 and bulk retirement
      actually fires (at scale 64 it provably never does — see
      DESIGN.md §14);
   plus the Figure-9-style sweep: a grid of independent experiments run
   sequentially (jobs=1) and on the PCOLOR_JOBS domain pool, with a
   byte-identity check of the rendered reports (the Layer-1
   parallel-speedup number).

   Every section runs PCOLOR_TRIALS back-to-back repetitions
   (Harness.timed_trials) and reports median ± MAD plus a sign-test CI
   over the raw trial vector — single samples on a shared container
   are 10–40% noise (DESIGN.md §15).  Each section also appends one
   provenance-stamped record to the perf ledger.

   Reference counts are the *executed* measured-pass references read
   from the post-run machine (unweighted), not the window-weighted
   totals, so refs/sec reflects real simulator work. *)

module M = Pcolor.Memsim.Machine
module Btrace = Pcolor.Runtime.Btrace
module Engine = Pcolor.Runtime.Engine
module Pool = Pcolor.Util.Pool
open Harness

(* [machine_cfg] bakes in the env scale; the scale-256 row needs its
   own divisor, so rebuild the config here. *)
let cfg_at machine ~n_cpus ~scale_div =
  let base =
    match machine with
    | Sgi -> Config.sgi_base ~n_cpus ()
    | Sgi_2way -> Config.sgi_2way ~n_cpus ()
    | Sgi_4mb -> Config.sgi_4mb ~n_cpus ()
    | Alpha -> Config.alphaserver ~n_cpus ()
  in
  Config.scale base scale_div

let setup_for ?(prefetch = false) ?(engine = Engine.Runs) ?(scale_div = scale) ~bench ~machine
    ~n_cpus ~policy () =
  let d = Spec.find bench in
  let cfg = cfg_at machine ~n_cpus ~scale_div in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> d.build ~scale:scale_div ()) ~policy) with
    prefetch;
    engine;
  }

(* One uncached experiment: fresh program, machine and kernel. *)
let run_once ?(prefetch = false) ?(engine = Engine.Runs) ?(scale_div = scale) ~bench ~machine
    ~n_cpus ~policy () =
  Run.run (setup_for ~prefetch ~engine ~scale_div ~bench ~machine ~n_cpus ~policy ())

(* ---------- 1. single-domain hot path ---------- *)

(* demand path and prefetch path, one workload each *)
let pair_cases = [ ("tomcatv demand", false); ("tomcatv +prefetch", true) ]

(* One full pipeline pass over the pair (program build, layout, CDPC,
   kernel construction, both passes); returns executed references. *)
let pair_refs ?(engine = Engine.Runs) ?(scale_div = scale) ?(machine = Sgi) () =
  List.fold_left
    (fun acc (_, prefetch) ->
      let o =
        run_once ~prefetch ~engine ~scale_div ~bench:"tomcatv" ~machine ~n_cpus:4
          ~policy:Run.Page_coloring ()
      in
      acc + refs_executed o.Run.machine)
    0 pair_cases

let single_domain_with ~engine () =
  warm_up_pair ();
  timed_trials (fun () -> pair_refs ~engine ())

let single_domain () =
  let t = single_domain_with ~engine:Engine.Runs () in
  note_timed "single-domain (runs)" t;
  t

(* both engines on the identical workload pair *)
let engines ~runs () =
  let interp = single_domain_with ~engine:Engine.Interp () in
  note "  engines: interp %.3e, runs %.3e median refs/sec (runs %.2fx interp)"
    interp.summary.Ostat.median runs.summary.Ostat.median
    (runs.summary.Ostat.median /. interp.summary.Ostat.median);
  (interp, runs)

(* ---------- 2. replay off a binary tape ---------- *)

let replay_mode () =
  let tapes =
    List.map
      (fun (_, prefetch) ->
        let setup =
          setup_for ~prefetch ~bench:"tomcatv" ~machine:Sgi ~n_cpus:4 ~policy:Run.Page_coloring
            ()
        in
        let file = Filename.temp_file "pcolor_bench" ".btrace" in
        let header =
          {
            Btrace.bench = "tomcatv";
            machine = "sgi";
            n_cpus = 4;
            scale;
            policy = Run.policy_name Run.Page_coloring;
            prefetch;
            seed = setup.Run.seed;
            cap = setup.Run.cap;
            provenance = "";
          }
        in
        let oc = open_out_bin file in
        let w = Btrace.create_writer oc header in
        ignore (Run.run ~recorder:(Btrace.recorder w) setup);
        Btrace.finish w;
        close_out oc;
        (file, setup))
      pair_cases
  in
  let t =
    timed_trials (fun () ->
        List.fold_left
          (fun acc (file, setup) ->
            let ic = open_in_bin file in
            let r = Btrace.open_reader ic in
            let o = Btrace.replay r ~setup in
            close_in ic;
            acc + refs_executed o.Run.machine)
          0 tapes)
  in
  List.iter (fun (file, _) -> Sys.remove file) tapes;
  note_timed "replay (v2 tape)" t;
  t

(* ---------- 3. smoke scale, where bulk retirement fires ---------- *)

let scale_256 () =
  (* the base SGI's L2 shrinks below 2 colors at /256; the 4MB-L2
     variant keeps 4 colors and the same line geometry *)
  let t =
    timed_trials (fun () -> pair_refs ~engine:Engine.Runs ~scale_div:256 ~machine:Sgi_4mb ())
  in
  note_timed "scale-256 (runs)" t;
  t

(* ---------- 4. domain-parallel sweep ---------- *)

let sweep_grid =
  let benches = [ "tomcatv"; "swim"; "hydro2d"; "mgrid" ] in
  let cpus = [ 1; 4 ] in
  let policies = [ Run.Page_coloring; Run.Bin_hopping ] in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun n_cpus -> List.map (fun policy -> (bench, n_cpus, policy)) policies)
        cpus)
    benches

(* LPT scheduling: submit expensive experiments first so the pool's tail
   is a cheap run, not a 4-CPU simulation started last.  Results are
   written into index slots, so reports stay in grid order and the
   sequential-vs-parallel byte-identity check is unaffected. *)
let sweep_cost (bench, n_cpus, _) = float_of_int n_cpus *. (Spec.find bench).Spec.table1_mb

let run_sweep ~jobs =
  let n = List.length sweep_grid in
  let reports = Array.make n "" in
  let refs = Array.make n 0 in
  let tasks =
    List.mapi
      (fun i (bench, n_cpus, policy) ->
        (sweep_cost (bench, n_cpus, policy),
         fun () ->
           let o = run_once ~bench ~machine:Alpha ~n_cpus ~policy () in
           refs.(i) <- refs_executed o.Run.machine;
           reports.(i) <- Format.asprintf "%a" Report.pp o.Run.report))
      sweep_grid
  in
  Pool.run_all ~jobs
    (List.map snd (List.stable_sort (fun (ca, _) (cb, _) -> compare cb ca) tasks));
  (reports, Array.fold_left ( + ) 0 refs)

let sweep () =
  (* every trial — sequential and parallel alike — must render the
     byte-identical report set *)
  let reference = ref None in
  let checked_run ~jobs () =
    let reports, refs = run_sweep ~jobs in
    (match !reference with
    | None -> reference := Some reports
    | Some r0 ->
      if reports <> r0 then failwith "throughput sweep: run diverged from first sequential run");
    refs
  in
  let seq = timed_trials (checked_run ~jobs:1) in
  let par = timed_trials (checked_run ~jobs) in
  let speedup = par.summary.Ostat.median /. seq.summary.Ostat.median in
  note "  sweep (%d experiments): sequential %.3e, %d-domain %.3e median refs/sec = %.2fx speedup"
    (List.length sweep_grid) seq.summary.Ostat.median jobs par.summary.Ostat.median speedup;
  note "  parallel reports byte-identical to sequential: %b" true;
  (seq, par, speedup)

(* ---------- JSON emission ---------- *)

let write_json ~file ~single ~engines:(interp, runs) ~replay ~smoke
    ~sweep:(seq, par, speedup) =
  let module J = Pcolor.Obs.Json in
  let median (t : timed) = t.summary.Ostat.median in
  let json =
    J.Obj
      [
        ("schema_version", J.Int Pcolor.Obs.Provenance.schema_version);
        ("provenance", Pcolor.Obs.Provenance.to_json (provenance ()));
        ("scale", J.Int scale);
        ("jobs", J.Int jobs);
        ("trials", J.Int trials);
        ("single_domain", rate_json single);
        ( "engines",
          J.Obj
            [
              ("interp", rate_json interp);
              ("runs", rate_json runs);
              ("runs_speedup", J.Float (median runs /. median interp));
            ] );
        ("replay", rate_json replay);
        ("scale_256", rate_json smoke);
        ( "sweep",
          J.Obj
            [
              ("experiments", J.Int (List.length sweep_grid));
              ("refs", J.Int seq.refs);
              ("seq", rate_json seq);
              ("par", rate_json par);
              ("speedup", J.Float speedup);
              ("identical", J.Bool true);
            ] );
      ]
  in
  let oc = open_out file in
  output_string oc (J.pretty json);
  output_char oc '\n';
  close_out oc;
  note "  wrote %s" file

let run () =
  section
    (Printf.sprintf
       "Throughput: simulated refs/sec, single- and %d-domain (PCOLOR_JOBS), %d trials/section"
       jobs trials);
  let single = single_domain () in
  let ((interp, runs) as eng) = engines ~runs:single () in
  let replay = replay_mode () in
  let smoke = scale_256 () in
  let ((seq, par, _) as sw) = sweep () in
  write_json ~file:"BENCH_throughput.json" ~single ~engines:eng ~replay ~smoke ~sweep:sw;
  ledger_add_timed ~section:"single_domain" single;
  ledger_add_timed ~section:"engines/interp" interp;
  ledger_add_timed ~section:"engines/runs" runs;
  ledger_add_timed ~section:"replay" replay;
  ledger_add_timed ~section:"scale_256" smoke;
  ledger_add_timed ~section:"sweep/seq" seq;
  ledger_add_timed ~section:"sweep/par" par;
  ledger_flush ()
