(* The benchmark proper: set-up, the timed closed loop, the traced run
   and the one-line result.

   One process, one domain, a closed loop: each experiment starts when
   the previous one ends.  The loop runs whole passes over the
   workload's experiments, each pass in a seed-shuffled order, until
   [seconds] have passed and at least [min_experiments] ran, so every
   experiment is repeated about equally often whatever the seed.  The
   timings take each experiment at its fastest repeat. *)

module Rng = Pcolor.Util.Rng

let now = Staged.now

type experiment = {
  id : string;  (** key in expected.txt *)
  run : unit -> Grid.result;  (** untraced *)
  traced : Staged.acc -> Grid.result;  (** the same experiment, staged *)
}

type workload = {
  experiments : experiment array;  (** canonical order *)
  setup : unit -> int;  (** one set-up; returns the bytes it wrote (replay tapes) *)
  setup_reps : int;  (** set-ups per run, whose median is reported *)
  prepare_trace : unit -> unit;  (** traced run only, before its loop *)
  cleanup : unit -> unit;
}

let workload_names = [ "sweep"; "mix"; "replay" ]

let fail fmt = Printf.ksprintf failwith fmt

(* progress and failure lines on stderr *)
let verbose = ref true

let log fmt = Printf.ksprintf (fun s -> if !verbose then prerr_endline ("perfbench: " ^ s)) fmt

let sweep ~seed ~smoke =
  let cells =
    if smoke then List.filter (fun c -> c.Grid.bench = "tomcatv") Grid.sweep_cells
    else Grid.sweep_cells
  in
  let warm =
    if smoke then List.hd cells
    else List.find (fun c -> c.Grid.bench = "tomcatv" && c.Grid.n_cpus = 8 && c.Grid.prefetch) cells
  in
  {
    experiments =
      Array.of_list
        (List.map
           (fun c ->
             {
               id = Grid.sweep_id c;
               run = (fun () -> Grid.run_sweep ~seed c);
               traced = (fun acc -> Staged.sweep acc ~seed c);
             })
           cells);
    setup =
      (fun () ->
        ignore (Grid.run_sweep ~seed warm);
        0);
    setup_reps = 21;
    prepare_trace = ignore;
    cleanup = ignore;
  }

let mix ~seed ~smoke =
  let cells = if smoke then [ List.hd Grid.mix_cells ] else Grid.mix_cells in
  {
    experiments =
      Array.of_list
        (List.map
           (fun c ->
             {
               id = Grid.mix_id c;
               run = (fun () -> Grid.run_mix ~seed c);
               traced = (fun acc -> Staged.mix acc ~seed c);
             })
           cells);
    setup =
      (fun () ->
        ignore (Grid.run_mix ~seed (List.hd cells));
        0);
    setup_reps = 21;
    prepare_trace = ignore;
    cleanup = ignore;
  }

let replay ~seed ~smoke ~scratch =
  let cells =
    if smoke then List.filter (fun c -> c.Grid.rbench = "tomcatv") Grid.replay_cells
    else Grid.replay_cells
  in
  let path c =
    Filename.concat scratch
      (String.map (fun ch -> if ch = '/' || ch = '+' then '_' else ch) (Grid.replay_id c) ^ ".pcbt")
  in
  let live = Hashtbl.create 16 and refs = Hashtbl.create 16 in
  (* a replayed (or staged live) report must equal the recorded run's *)
  let same_as_live c output =
    if Hashtbl.find_opt live (Grid.replay_id c) <> Some output then
      fail "report differs from the recorded run's"
  in
  let exp c =
    let setup = Grid.replay_setup ~seed c in
    {
      id = Grid.replay_id c;
      run =
        (fun () ->
          let r = Grid.run_replay ~path:(path c) setup in
          same_as_live c r.Grid.output;
          r);
      traced =
        (fun acc ->
          let reference = Hashtbl.find refs (Grid.replay_id c) in
          same_as_live c reference.Staged.output;
          let r = Staged.replay acc ~path:(path c) ~reference setup in
          same_as_live c r.Grid.output;
          r);
    }
  in
  {
    experiments = Array.of_list (List.map exp cells);
    setup =
      (fun () ->
        if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
        List.fold_left
          (fun bytes c ->
            let o, n = Grid.record ~path:(path c) (Grid.replay_setup ~seed c) c in
            let r = Grid.of_report ~refs:(Grid.refs_executed o.Grid.Run.machine) o.Grid.Run.report in
            Hashtbl.replace live (Grid.replay_id c) r.Grid.output;
            bytes + n)
          0 cells);
    (* recording takes about 1 s, so fewer set-ups leave the loop its passes *)
    setup_reps = 7;
    prepare_trace =
      (fun () ->
        List.iter (fun c -> Hashtbl.replace refs (Grid.replay_id c) (Staged.reference ~seed c)) cells);
    cleanup = (fun () -> List.iter (fun c -> if Sys.file_exists (path c) then Sys.remove (path c)) cells);
  }

let make name ~seed ~smoke ~scratch =
  match name with
  | "sweep" -> sweep ~seed ~smoke
  | "mix" -> mix ~seed ~smoke
  | "replay" -> replay ~seed ~smoke ~scratch
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- statistics ---- *)

(* Linear-interpolation quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- the loop ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  first : (string, Grid.result) Hashtbl.t;  (** first checked output per experiment *)
  fastest : (string, float) Hashtbl.t;  (** fastest checked repeat's wall per experiment *)
}

let tally () = { attempted = 0; failed = 0; first = Hashtbl.create 64; fastest = Hashtbl.create 64 }

(* [checked t ~check id f] runs one experiment and checks its output:
   against expected.txt the first time, and against that first output
   on every repeat.  A mismatch or an exception counts as a failure and
   the loop goes on. *)
let checked t ~check id f =
  t.attempted <- t.attempted + 1;
  match
    let r = f () in
    if r.Grid.refs <= 0 then fail "no references executed";
    (match Hashtbl.find_opt t.first id with
    | Some first -> if first.Grid.output <> r.Grid.output then fail "output differs from this run's earlier output"
    | None ->
      check ~id r;
      Hashtbl.replace t.first id r);
    r
  with
  | r -> Some r
  | exception e ->
    t.failed <- t.failed + 1;
    log "%s failed: %s" id (Printexc.to_string e);
    None

(* [passes ~rng ~seconds ~min_experiments ~between w f] runs whole
   shuffled passes of [f] over [w.experiments] until both limits are
   met, calling [between] after each pass. *)
let passes ~rng ~seconds ~min_experiments ~between w f =
  let t0 = now () and n = ref 0 in
  let continue_ () = now () -. t0 < seconds || !n < min_experiments in
  let go = ref true in
  while !go do
    let order = Array.copy w.experiments in
    Rng.shuffle rng order;
    let p0 = now () in
    Array.iter
      (fun e ->
        incr n;
        f e)
      order;
    log "pass of %d experiments in %.3f s" (Array.length order) (now () -. p0);
    between ();
    go := continue_ ()
  done

(* [sims ~expected ~workload w t] sums the simulated totals over one
   output per experiment whose output the seed does not move (the
   bin-hopping race jitter moves the others), in canonical order, so the
   sums are identical on every run of the same code.  They must equal
   the expected rows' sums; every experiment must have an output. *)
let sims ~expected ~workload w t =
  let wall = ref 0.0 and conflict = ref 0.0 and ok = ref true in
  let e_wall = ref 0.0 and e_conflict = ref 0.0 in
  Array.iter
    (fun e ->
      match Hashtbl.find_opt t.first e.id with
      | None -> ok := false
      | Some r ->
        if Expected.seed_free expected ~workload ~id:e.id then begin
          let x = Option.get (Expected.expect expected ~workload ~seed:Expected.default_seed ~id:e.id) in
          wall := !wall +. r.Grid.wall_cycles;
          conflict := !conflict +. r.Grid.conflict;
          e_wall := !e_wall +. x.Expected.wall_cycles;
          e_conflict := !e_conflict +. x.Expected.conflict
        end)
    w.experiments;
  let ok = !ok && !wall = !e_wall && !conflict = !e_conflict in
  if not ok then log "simulated totals do not match the expected outputs";
  (!wall, !conflict, ok)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

(* Set-ups per run: one before the loop, the others between its first
   passes, so that their median spans the run rather than one noisy
   stretch of the host.  A set-up lasts long enough to average over the
   host's fast and slow moments, so unlike the experiments it is not
   taken at its fastest: each is divided by the host slowdown the
   calibration samples just before and after it show. *)
type setups = { mutable times : float list; mutable calibrated : float list; mutable bytes : int }

let set_up w cal =
  let s = { times = []; calibrated = []; bytes = 0 } in
  let once () =
    let c0 = Calib.sample cal in
    let t0 = now () in
    s.bytes <- w.setup ();
    let dt = now () -. t0 in
    let c1 = Calib.sample cal in
    let local = (c0 +. c1) /. 2.0 /. Calib.reference_s in
    log "set-up %.6f s, calibration %.3f / %.3f ms" dt (c0 *. 1e3) (c1 *. 1e3);
    s.times <- dt :: s.times;
    s.calibrated <- (dt /. local) :: s.calibrated
  in
  once ();
  let between () = if List.length s.times < w.setup_reps then once () in
  (s, between)

let timed_run ~expected ~workload ~seed ~seconds ~smoke w =
  let cal = Calib.create () in
  let setups, between = set_up w cal in
  let between = if smoke then ignore else between in
  let rng = Rng.create seed in
  let t = tally () in
  let check ~id r = Expected.check expected ~workload ~seed ~id r in
  passes ~rng ~seconds ~min_experiments:(if smoke then 0 else 100) ~between w (fun e ->
      ignore (Calib.sample cal);
      let t0 = now () in
      match checked t ~check e.id e.run with
      | Some _ ->
        let dt = now () -. t0 in
        let best = Option.value ~default:dt (Hashtbl.find_opt t.fastest e.id) in
        Hashtbl.replace t.fastest e.id (Float.min best dt)
      | None -> ());
  (* each experiment at its fastest repeat: the host's noisy neighbours
     only ever add time; and every host time divided by how slow the
     host still was at its fastest in this run (see README.md, "Noise") *)
  let slowdown = Calib.slowdown cal in
  log "host slowdown %.4f (calibration fastest %.3f ms over %d samples)" slowdown
    (cal.Calib.fastest *. 1e3) cal.Calib.samples;
  let refs = ref 0 and secs = ref 0.0 and per_ref_ns = ref [] in
  Hashtbl.iter
    (fun id best ->
      let best = best /. slowdown in
      let r = (Hashtbl.find t.first id).Grid.refs in
      refs := !refs + r;
      secs := !secs +. best;
      per_ref_ns := (best *. 1e9 /. float_of_int r) :: !per_ref_ns)
    t.fastest;
  let sim_wall, sim_conflict, sims_ok = sims ~expected ~workload w t in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  {
    correct = t.failed = 0 && sims_ok;
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        ("setup_s", quantile setups.calibrated 0.5, "s");
        ("refs_per_s", ratio (float_of_int !refs) !secs, "refs/s");
        ("exp_ns_per_ref_p50", quantile !per_ref_ns 0.5, "ns/ref");
        ("exp_ns_per_ref_p90", quantile !per_ref_ns 0.9, "ns/ref");
        ("peak_heap_mb", heap_mb, "MiB");
        ("sim_gcycles", sim_wall /. 1e9, "Gcycles");
        ("sim_conflict_misses", sim_conflict, "count");
      ];
  }

(* The traced run: every experiment runs untraced and then staged, back
   to back, so host drift hits both alike; the staged output must be
   byte-identical to the untraced one. *)
let traced_run ~expected ~workload ~seed ~seconds ~smoke w =
  let setups, between = set_up w (Calib.create ()) in
  let between = if smoke then ignore else between in
  w.prepare_trace ();
  let rng = Rng.create seed in
  let t = tally () in
  let acc = Staged.create () in
  let untraced = ref 0.0 in
  let check ~id r = Expected.check expected ~workload ~seed ~id r in
  passes ~rng ~seconds ~min_experiments:0 ~between w (fun e ->
      ignore
        (checked t ~check e.id (fun () ->
             let t0 = now () in
             let r = e.run () in
             untraced := !untraced +. (now () -. t0);
             let s = e.traced acc in
             if s.Grid.output <> r.Grid.output then fail "traced output differs from untraced";
             r)));
  let _, _, sims_ok = sims ~expected ~workload w t in
  let g = Staged.get acc in
  let n = g "experiments" in
  let ms k = 1000.0 *. ratio (g k) n in
  let is_replay = workload = "replay" in
  {
    correct = t.failed = 0 && sims_ok;
    attempted = t.attempted;
    failed = t.failed;
    metrics =
      [
        ("comp.prepare_ms", ms "prepare", "ms");
        ("cdpc.hints_ms", 1000.0 *. ratio (g "hints") (g "hints_n"), "ms");
        ("runtime.create_ms", ms "create", "ms");
        ("runtime.warmup_s", g "warmup", "s");
        ("runtime.measured_s", g "measured", "s");
        ("comp.fill_s", g "fill", "s");
        ("memsim.consume_s", g "consume", "s");
        ("memsim.ns_per_ref", 1e9 *. ratio (g "measured.consume") (g "refs"), "ns/ref");
        ("memsim.refs", g "refs", "count");
        ("memsim.l1_hit_ratio", ratio (g "l1_hits") (g "refs"), "ratio");
        ("memsim.tlb_misses", g "tlb_misses", "count");
        ("memsim.l2_misses", g "l2_misses", "count");
        ("memsim.conflict_share", ratio (g "conflict") (g "l2_weighted"), "ratio");
        ("memsim.bus_occupancy", ratio (g "bus_occupancy") n, "ratio");
        ("memsim.pf_useful_ratio", ratio (g "pf_useful") (g "pf_issued"), "ratio");
        ("vm.page_faults", g "page_faults", "count");
        ( "vm.hints_honored_ratio",
          ratio (g "hints_honored") (g "hints_honored" +. g "hints_fallback"),
          "ratio" );
        ("sched.mix_ms", ms "mix", "ms");
        ("sched.reclaim_s", g "reclaim", "s");
        ("sched.switches", g "switches", "count");
        ("sched.reclaim_invocations", g "reclaim_invocations", "count");
        ("sched.reclaim_evictions", g "reclaim_evictions", "count");
        ("runtime.record_s", (if is_replay then quantile setups.times 0.5 else 0.0), "s");
        ("runtime.tape_mb", float_of_int setups.bytes /. 1048576.0, "MiB");
        ("runtime.replay_s", g "replay", "s");
        ( "runtime.decode_s",
          (if is_replay then g "replay" -. g "consume" -. g "create" else 0.0),
          "s" );
        ("obs.serialize_ms", ms "serialize", "ms");
        ("obs.artifact_kb", ratio (g "artifact_bytes") n /. 1024.0, "KiB");
        ("obs.parse_ms", ms "parse", "ms");
        ("stats.explain_ms", ms "explain", "ms");
        ("gc.minor_mwords", g "gc.minor_words" /. 1e6, "Mwords");
        ("gc.promoted_mwords", g "gc.promoted_words" /. 1e6, "Mwords");
        ("gc.major_collections", g "gc.major_collections", "count");
        ("trace.overhead_ratio", ratio (g "experiment") !untraced, "ratio");
        ("trace.residual_share", 1.0 -. ratio (g "spans") (g "experiment"), "ratio");
      ];
  }

let run ~expected ~workload ~seed ~seconds ~trace ~smoke ~scratch =
  let w = make workload ~seed ~smoke ~scratch in
  Fun.protect ~finally:w.cleanup (fun () ->
      (if trace then traced_run else timed_run) ~expected ~workload ~seed ~seconds ~smoke w)

(* The result line: every value printed with all its digits. *)
let to_line o =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" o.correct
    o.attempted o.failed;
  List.iteri
    (fun i (name, v, unit_) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
        (if Float.is_finite v then v else 0.0)
        unit_)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* [write_expected ~path ~scratch] runs every experiment of every
   workload once at the default and the held-out seed and writes the
   outputs as the new expectations. *)
let write_expected ~path ~scratch =
  let rows =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun seed ->
            let w = make workload ~seed ~smoke:false ~scratch in
            Fun.protect ~finally:w.cleanup (fun () ->
                ignore (w.setup ());
                Array.to_list
                  (Array.map
                     (fun e ->
                       log "%s seed %d %s" workload seed e.id;
                       (workload, seed, e.id, Expected.row_of (e.run ())))
                     w.experiments)))
          [ Expected.default_seed; Expected.heldout_seed ])
      workload_names
  in
  Expected.write path rows
