(* The traced run: each workload's experiment driven stage by stage
   from outside the library, with a span around every call into a layer.

   Spans nest.  The top-level spans of one experiment tile it (their sum
   is booked under "spans", the experiment's own wall under
   "experiment"); walker fill, consume and reclaim come from the
   library's own [Obs.Prof] attached through [Ctx] and nest inside the
   warm-up and measured spans, reclaim inside consume.  Every staged
   experiment must produce output byte-identical to the untraced one —
   driver.ml checks it. *)

module Run = Grid.Run
module Report = Grid.Report
module Machine = Grid.Machine
module Engine = Pcolor.Runtime.Engine
module Window = Pcolor.Runtime.Window
module Kernel = Pcolor.Vm.Kernel
module Frame_pool = Pcolor.Vm.Frame_pool
module Prof = Pcolor.Obs.Prof
module Ctx = Pcolor.Obs.Ctx
module Mix = Grid.Mix
module Job = Grid.Job
module Scheduler = Grid.Scheduler
module Reclaim = Pcolor.Sched.Reclaim

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Accumulated seconds and counts, by key. *)
type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64

let get (acc : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)

let add acc k v = Hashtbl.replace acc k (get acc k +. v)

let addi acc k v = add acc k (float_of_int v)

let timed acc k f =
  let t0 = now () in
  let r = f () in
  add acc k (now () -. t0);
  r

(* a top-level span of an experiment *)
let span acc k f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  add acc k dt;
  add acc "spans" dt;
  r

(* [experiment acc f] books one experiment's wall and its GC deltas
   (read outside the timed interval). *)
let experiment acc f =
  let g0 = Gc.quick_stat () in
  let r = timed acc "experiment" f in
  let g1 = Gc.quick_stat () in
  add acc "experiments" 1.0;
  add acc "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  add acc "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  addi acc "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
  r

let prof_wall p name =
  match List.find_opt (fun (r : Prof.row) -> r.Prof.name = name) (Prof.rows p) with
  | Some r -> r.Prof.wall_s
  | None -> 0.0

(* A top-level span that also books the profiler's walker-fill, consume
   (self: reclaim excluded) and reclaim time seen inside it; the
   measured span's consume is also kept apart for ns per reference. *)
let phase acc prof k f =
  let fill = prof_wall prof "walker fill"
  and consume = prof_wall prof "consume/retire"
  and reclaim = prof_wall prof "reclaim" in
  let r = span acc k f in
  let d_fill = prof_wall prof "walker fill" -. fill
  and d_consume = prof_wall prof "consume/retire" -. consume
  and d_reclaim = prof_wall prof "reclaim" -. reclaim in
  add acc "fill" d_fill;
  add acc "consume" (d_consume -. d_reclaim);
  add acc "reclaim" d_reclaim;
  add acc (k ^ ".consume") (d_consume -. d_reclaim);
  r

(* Simulated counts of one experiment: raw measured-pass machine
   counters and the weighted report. *)
let count acc machine (r : Report.t) =
  for cpu = 0 to Machine.n_cpus machine - 1 do
    let s = Machine.stats machine ~cpu in
    addi acc "refs" (s.Machine.l1_hits + s.Machine.l1_misses);
    addi acc "l1_hits" s.Machine.l1_hits;
    addi acc "tlb_misses" s.Machine.tlb_misses;
    addi acc "l2_misses" (Array.fold_left ( + ) 0 s.Machine.l2_miss_counts);
    addi acc "pf_issued" s.Machine.pf_issued;
    addi acc "pf_useful" s.Machine.pf_useful
  done;
  add acc "conflict" (Report.conflict_misses r);
  add acc "l2_weighted" (Array.fold_left ( +. ) 0.0 r.Report.l2_misses_by_class);
  add acc "bus_occupancy" r.Report.bus_occupancy;
  addi acc "page_faults" r.Report.page_faults;
  addi acc "hints_honored" r.Report.hints_honored;
  addi acc "hints_fallback" r.Report.hints_fallback

(* [hints acc setup summary program] times a separate CDPC hint
   generation on an already prepared program (outside any experiment). *)
let hints acc (setup : Run.setup) ~summary ~program =
  let cfg = setup.Run.cfg in
  timed acc "hints" (fun () ->
      ignore
        (Pcolor.Cdpc.Colorer.generate_ablated ~ablation:setup.Run.cdpc_ablation ~cfg ~summary ~program
           ~n_cpus:cfg.Grid.Config.n_cpus));
  add acc "hints_n" 1.0

let is_cdpc = function Run.Cdpc _ | Run.Cdpc_hash _ -> true | _ -> false

(* [run acc setup] is Run.run's operation sequence for a static policy,
   one stage per span.  The setup's observers are kept and the profiler
   is added to them. *)
let run acc (setup : Run.setup) =
  let prof = Prof.create () in
  let setup = { setup with Run.obs = { setup.Run.obs with Ctx.prof = Some prof } } in
  let cfg = setup.Run.cfg and obs = setup.Run.obs in
  experiment acc (fun () ->
      let p = span acc "prepare" (fun () -> Run.prepare setup) in
      let kernel, machine, engine =
        span acc "create" (fun () ->
            let classify =
              match setup.Run.policy with
              | Run.Cdpc_hash _ -> Some (Pcolor.Cdpc.Hcolorer.classify cfg)
              | _ -> None
            in
            let kernel =
              Kernel.create ~cfg ~policy:p.Run.policy ?mem_frames:setup.Run.mem_frames ?classify ()
            in
            let machine = Machine.create ~obs cfg in
            let plans =
              if setup.Run.prefetch then Pcolor.Comp.Prefetcher.plan cfg p.Run.program
              else Pcolor.Comp.Prefetcher.none
            in
            let engine =
              Engine.create ~check_bounds:setup.Run.check_bounds
                ~collect_trace:setup.Run.collect_trace ~obs ~engine:setup.Run.engine ~machine ~kernel
                ~program:p.Run.program ~plans ()
            in
            (kernel, machine, engine))
      in
      phase acc prof "warmup" (fun () ->
          Engine.startup engine;
          List.iter (fun s -> Engine.run_warmup_step engine s) (Engine.warmup_plan engine));
      span acc "reset" (fun () ->
          Machine.reset_stats machine;
          Engine.begin_measured engine);
      let totals =
        phase acc prof "measured" (fun () ->
            let into = Pcolor.Stats.Totals.create ~n_cpus:(Machine.n_cpus machine) in
            List.iter
              (fun (s : Window.step) ->
                for _ = 1 to s.Window.simulate do
                  Engine.run_measured_occurrence engine ~into s
                done)
              (Engine.measured_plan engine ~cap:setup.Run.cap);
            into)
      in
      let report =
        span acc "report" (fun () ->
            Machine.sample_flush machine;
            let pool = Kernel.pool kernel in
            Report.of_totals ~benchmark:p.Run.program.Pcolor.Comp.Ir.name ~machine:cfg.Grid.Config.name
              ~n_cpus:cfg.Grid.Config.n_cpus ~policy:(Run.policy_name setup.Run.policy)
              ~prefetch:setup.Run.prefetch ~page_faults:(Kernel.faults kernel)
              ~hints_honored:(Frame_pool.honored pool) ~hints_fallback:(Frame_pool.fallbacks pool)
              totals)
      in
      (p, machine, report))

let sweep acc ~seed c =
  let setup = Grid.sweep_setup ~seed c in
  let p, machine, report = run acc setup in
  count acc machine report;
  if is_cdpc c.Grid.policy then hints acc setup ~summary:p.Run.summary ~program:p.Run.program;
  Grid.of_report ~refs:(Grid.refs_executed machine) report

(* Mix.run's operation sequence, one stage per span. *)
let mix acc ~seed (c : Grid.mix_cell) =
  let prof = Prof.create () in
  let obs = Ctx.create ~prof ~sample:false () in
  let cfg = Grid.mix_cfg and sched = Scheduler.default in
  let specs = Array.of_list (Grid.mix_specs ~seed c) in
  let o =
    timed acc "mix" (fun () ->
        experiment acc (fun () ->
            let jobs, machine, pool, s, reclaimer, va_span =
              span acc "create" (fun () ->
                  let n_colors = Grid.Config.n_colors cfg in
                  let page_size = cfg.Grid.Config.page_size in
                  let extent = Array.fold_left (fun m sp -> max m (Mix.probe_extent ~cfg sp)) 0 specs in
                  let va_span = Pcolor.Util.Bits.next_pow2 (max extent (n_colors * page_size)) in
                  let frames = Grid.mix_frames c in
                  let pool =
                    if Array.exists (fun (sp : Job.spec) -> is_cdpc sp.Job.policy) specs then
                      Frame_pool.create_classified ~classify:(Pcolor.Cdpc.Hcolorer.classify cfg) ~frames
                        ~n_colors
                    else Frame_pool.create ~frames ~n_colors
                  in
                  let machine = Machine.create ~obs cfg in
                  let ranges =
                    Mix.cpu_ranges ~policy:sched.Scheduler.policy ~n_cpus:cfg.Grid.Config.n_cpus
                      (Array.length specs)
                  in
                  let jobs =
                    Array.mapi
                      (fun asid sp ->
                        Job.create ~cfg ~machine ~pool ~obs ~asid ~relocate:(asid * va_span)
                          ~cpus:ranges.(asid) ~cap:2 sp)
                      specs
                  in
                  let kernels = Array.map (fun (j : Job.t) -> j.Job.kernel) jobs in
                  let reclaimer = Reclaim.create ~machine ~pool ~kernels () in
                  Array.iter
                    (fun kn ->
                      Kernel.set_reclaim kn (fun ~cpu ->
                          Prof.start prof Prof.Reclaim;
                          let freed = Reclaim.reclaim reclaimer ~cpu in
                          Prof.stop prof Prof.Reclaim;
                          freed))
                    kernels;
                  (jobs, machine, pool, Scheduler.create ~cfg:sched ~machine jobs, reclaimer, va_span))
            in
            phase acc prof "warmup" (fun () ->
                Scheduler.startup_all s;
                Scheduler.warmup s);
            span acc "reset" (fun () ->
                Machine.reset_stats machine;
                Array.iter Job.begin_measured jobs);
            phase acc prof "measured" (fun () -> Scheduler.measured s);
            span acc "report" (fun () ->
                Machine.sample_flush machine;
                let reports = Array.map (fun j -> Job.report ~cfg j) jobs in
                let name =
                  "mix(" ^ String.concat "+" (Array.to_list (Array.map (fun (sp : Job.spec) -> sp.Job.name) specs)) ^ ")"
                in
                let kernels = Array.map (fun (j : Job.t) -> j.Job.kernel) jobs in
                let aggregate =
                  Report.of_totals ~benchmark:name ~machine:cfg.Grid.Config.name
                    ~n_cpus:cfg.Grid.Config.n_cpus
                    ~policy:(Scheduler.policy_name sched.Scheduler.policy)
                    ~prefetch:(Array.exists (fun (sp : Job.spec) -> sp.Job.prefetch) specs)
                    ~page_faults:(Array.fold_left (fun a kn -> a + Kernel.faults kn) 0 kernels)
                    ~hints_honored:(Frame_pool.honored pool) ~hints_fallback:(Frame_pool.fallbacks pool)
                    (Mix.merge_totals ~n_cpus:cfg.Grid.Config.n_cpus jobs)
                in
                {
                  Mix.cfg;
                  sched_cfg = sched;
                  va_span;
                  jobs;
                  reports;
                  aggregate;
                  machine;
                  pool;
                  sched_stats = Scheduler.stats s;
                  reclaim = reclaimer;
                  metrics = None;
                  attrib = None;
                })))
  in
  count acc o.Mix.machine o.Mix.aggregate;
  addi acc "switches" o.Mix.sched_stats.Scheduler.switches;
  let invocations, _, _, evictions = Reclaim.stats o.Mix.reclaim in
  addi acc "reclaim_invocations" invocations;
  addi acc "reclaim_evictions" evictions;
  if is_cdpc c.Grid.mpolicy then
    Array.iter
      (fun sp ->
        let setup = Job.setup_of ~cfg sp in
        let p = Run.prepare setup in
        hints acc setup ~summary:p.Run.summary ~program:p.Run.program)
      specs;
  Grid.of_mix o

(* What a live run of a replay cell costs, layer by layer, with the
   replay's observers attached: the tape decoder replaces the walker,
   so a replay's consume and create are estimated from these. *)
type reference = { consume : float; measured_consume : float; create : float; output : string }

let reference ~seed c =
  let acc = create () in
  let setup = { (Grid.replay_setup ~seed c) with Run.obs = Grid.full_obs () } in
  let _, machine, report = run acc setup in
  {
    consume = get acc "consume";
    measured_consume = get acc "measured.consume";
    create = get acc "create";
    output = (Grid.of_report ~refs:(Grid.refs_executed machine) report).Grid.output;
  }

let replay acc ~path ~(reference : reference) setup =
  let o, artifact, text, parsed, explained =
    experiment acc (fun () ->
        let o = span acc "replay" (fun () -> Grid.replay_tape ~path setup) in
        let artifact, text = span acc "serialize" (fun () -> Grid.serialize o) in
        let parsed = span acc "parse" (fun () -> Grid.parse text) in
        let explained = span acc "explain" (fun () -> Grid.Explain.render parsed) in
        (o, artifact, text, parsed, explained))
  in
  addi acc "artifact_bytes" (String.length text);
  add acc "consume" reference.consume;
  add acc "measured.consume" reference.measured_consume;
  add acc "create" reference.create;
  count acc o.Run.machine o.Run.report;
  Grid.replay_result ~artifact ~parsed ~explained o
