(** The mix runner: the one-call entry point of the multiprogramming
    subsystem, mirroring {!Pcolor_runtime.Run.run} for a *set* of jobs.

    It probes every workload's laid-out extent ({!Run.layout}) to size
    the common virtual-address span (a power of two, a multiple of
    [n_colors × page_size], so relocation by [asid × span] keeps every
    page's color — see {!Job}), builds one shared machine and one shared
    frame pool, wires the second-chance reclaimer into every kernel, and
    drives the jobs through the {!Sched} loop with the same
    warm-up-then-reset measurement discipline as a single run: all
    startups, the full interleaved warm-up pass, ONE machine-wide
    statistics reset, then the interleaved measured pass.  It ends
    through {!Run.close}, the close step of a single run, publishing
    the per-job, scheduler and reclaim counters beside the machine's.

    A one-job gang mix performs exactly the operation sequence of
    [Run.run] (each job is Run's own wiring, relocation 0, [last]
    starts at asid 0 so no switch is ever charged), which is what pins
    the per-job report to the plain run's report byte for byte. *)

module M = Pcolor_memsim.Machine
module Config = Pcolor_memsim.Config
module Mclass = Pcolor_memsim.Mclass
module Frame_pool = Pcolor_vm.Frame_pool
module Kernel = Pcolor_vm.Kernel
module Run = Pcolor_runtime.Run
module Audit = Pcolor_runtime.Audit
module Totals = Pcolor_stats.Totals
module Report = Pcolor_stats.Report

type outcome = {
  cfg : Config.t;
  sched_cfg : Sched.config;
  va_span : int; (* bytes between consecutive address spaces *)
  jobs : Job.t array;
  reports : Report.t array; (* per job, asid order *)
  aggregate : Report.t; (* merged measured-pass totals of every job *)
  machine : M.t;
  pool : Frame_pool.t;
  sched_stats : Sched.stats;
  reclaim : Reclaim.t;
  metrics : Pcolor_obs.Metrics.snapshot option;
  attrib : Pcolor_obs.Attrib.t option;
}

(* The laid-out extent of a job's program: {!Run.layout} on a
   throwaway program (layout mutates bases, hence the fresh program;
   hints don't move the data segment's end). *)
let probe_extent ~cfg (s : Job.spec) =
  let _, _, layout_end = Run.layout (Job.setup_of ~cfg s) in
  layout_end

(* Gang: every job owns the whole machine (in turns).  Space: contiguous
   near-equal partitions, remainder CPUs to the first jobs. *)
let cpu_ranges ~policy ~n_cpus k =
  match (policy : Sched.policy) with
  | Sched.Gang -> Array.init k (fun _ -> (0, n_cpus))
  | Sched.Space ->
    if k > n_cpus then
      invalid_arg (Printf.sprintf "Mix.run: %d space-shared jobs on %d CPUs" k n_cpus);
    let base = n_cpus / k and extra = n_cpus mod k in
    Array.init k (fun i ->
        let first = (i * base) + min i extra in
        (first, base + if i < extra then 1 else 0))

(* Sum every job's measured-pass accumulator.  Occurrences of different
   jobs are temporally exclusive, so the sum is the measured window's
   aggregate (context-switch cycles, charged between occurrences, are
   deliberately outside: they belong to the system, and appear in the
   sched stats instead).  Folding a job in as the delta from zero at
   unit weight and stretch adds every field exactly; only [wall], which
   [accumulate] derives from the per-CPU times, is summed directly. *)
let merge_totals ~n_cpus (jobs : Job.t array) =
  let acc = Totals.create ~n_cpus and zero = Totals.create ~n_cpus in
  Array.iter
    (fun (j : Job.t) ->
      let wall = acc.Totals.wall +. j.Job.totals.Totals.wall in
      Totals.accumulate ~into:acc ~start:zero ~fin:j.Job.totals ~f:1.0 ~weight:1.0;
      acc.Totals.wall <- wall)
    jobs;
  acc

(** [run ~cfg specs] executes a multiprogrammed mix end to end.
    [sched] (default {!Sched.default}) sets placement/quantum/switch
    behaviour; [mem_frames] sizes the shared pool (default: ample, the
    same formula a lone kernel uses — shrink it to force CDPC hint
    competition and reclaim); [cap] is the per-job representative-window
    occurrence cap.
    Raises {!Pcolor_vm.Kernel.Out_of_frames} only when reclaim finds
    nothing left to evict. *)
let run ~cfg ?(sched = Sched.default) ?mem_frames ?(cap = 2) ?(obs = Pcolor_obs.Ctx.disabled) (specs : Job.spec list) =
  if specs = [] then invalid_arg "Mix.run: no jobs";
  let specs = Array.of_list specs in
  let k = Array.length specs in
  let n_colors = Config.n_colors cfg in
  let extent = Array.fold_left (fun m s -> max m (probe_extent ~cfg s)) 0 specs in
  let va_span = Pcolor_util.Bits.next_pow2 (max extent (n_colors * cfg.Config.page_size)) in
  let frames = Option.value mem_frames ~default:(Kernel.ample_frames cfg) in
  let pool =
    (* One shared pool for every address space.  If any job is
       hash-aware (Cdpc_hash), the pool is classified by the inverted
       slice hash so that job's hints target true (slice, set-group)
       bins; under the identity hash the classifier coincides with
       [frame mod n_colors], so plain mixes are unaffected. *)
    if Array.exists (fun (s : Job.spec) -> match s.Job.policy with Run.Cdpc_hash _ -> true | _ -> false) specs
    then Frame_pool.create_classified ~classify:(Pcolor_cdpc.Hcolorer.classify cfg) ~frames ~n_colors
    else Frame_pool.create ~frames ~n_colors
  in
  let machine = M.create ~obs cfg in
  let ranges = cpu_ranges ~policy:sched.Sched.policy ~n_cpus:cfg.Config.n_cpus k in
  let jobs =
    Array.mapi
      (fun asid s ->
        Job.create ~cfg ~machine ~pool ~obs ~asid ~relocate:(asid * va_span) ~cpus:ranges.(asid)
          ~cap s)
      specs
  in
  let kernels = Array.map (fun (j : Job.t) -> j.Job.kernel) jobs in
  let reclaimer = Reclaim.create ~machine ~pool ~kernels () in
  (* the reclaim closure is the one place memory pressure costs land;
     bracket it for the self-profiler (nested inside consume — Prof
     keeps per-phase stamps, so cross-kind nesting is fine) *)
  let reclaim_one =
    match Pcolor_obs.Ctx.prof obs with
    | None -> fun ~cpu -> Reclaim.reclaim reclaimer ~cpu
    | Some p ->
      fun ~cpu ->
        Pcolor_obs.Prof.start p Pcolor_obs.Prof.Reclaim;
        let freed = Reclaim.reclaim reclaimer ~cpu in
        Pcolor_obs.Prof.stop p Pcolor_obs.Prof.Reclaim;
        freed
  in
  Array.iter (fun kn -> Kernel.set_reclaim kn reclaim_one) kernels;
  let s = Sched.create ~cfg:sched ~machine jobs in
  Sched.startup_all s;
  Sched.warmup s;
  (* the single-run measurement discipline, machine-wide: discard the
     warm-up pass, then measure *)
  M.reset_stats machine;
  Array.iter Job.begin_measured jobs;
  Sched.measured s;
  let metrics =
    Run.close ~obs machine ~publish:(fun reg ->
        let module Mx = Pcolor_obs.Metrics in
        Array.iteri (fun i kn -> Kernel.publish_metrics ~pool_stats:(i = 0) kn reg) kernels;
        Array.iter
          (fun (j : Job.t) ->
            let c name =
              Mx.counter reg (Printf.sprintf "job.%d.%s.%s" j.Job.asid j.Job.spec.Job.name name)
            in
            Mx.add (c "page_faults") (Kernel.faults j.Job.kernel);
            Mx.add (c "dispatches") j.Job.dispatches;
            List.iter
              (fun cls ->
                Mx.add (c ("l2_miss." ^ Mclass.to_string cls)) (Mclass.get j.Job.l2_measured cls))
              Mclass.all)
          jobs;
        let st = Sched.stats s in
        let c name = Mx.counter reg name in
        Mx.add (c "sched.dispatches") st.Sched.dispatches;
        Mx.add (c "sched.switches") st.Sched.switches;
        Mx.add (c "sched.switch_cycles") st.Sched.switch_cycles;
        Mx.add (c "sched.tlb_flushes") st.Sched.tlb_flushes;
        let invocations, scanned, second_chances, evictions = Reclaim.stats reclaimer in
        Mx.add (c "reclaim.invocations") invocations;
        Mx.add (c "reclaim.scanned") scanned;
        Mx.add (c "reclaim.second_chances") second_chances;
        Mx.add (c "reclaim.evictions") evictions)
  in
  let reports = Array.map (fun j -> Job.report ~cfg j) jobs in
  let mix_name =
    "mix("
    ^ String.concat "+" (Array.to_list (Array.map (fun (sp : Job.spec) -> sp.Job.name) specs))
    ^ ")"
  in
  let aggregate =
    Report.of_totals ~benchmark:mix_name ~machine:cfg.Config.name ~n_cpus:cfg.Config.n_cpus
      ~policy:(Sched.policy_name sched.Sched.policy)
      ~prefetch:(Array.exists (fun (sp : Job.spec) -> sp.Job.prefetch) specs)
      ~page_faults:(Array.fold_left (fun acc kn -> acc + Kernel.faults kn) 0 kernels)
      ~hints_honored:(Frame_pool.honored pool) ~hints_fallback:(Frame_pool.fallbacks pool)
      (merge_totals ~n_cpus:cfg.Config.n_cpus jobs)
  in
  {
    cfg;
    sched_cfg = sched;
    va_span;
    jobs;
    reports;
    aggregate;
    machine;
    pool;
    sched_stats = Sched.stats s;
    reclaim = reclaimer;
    metrics;
    attrib = Pcolor_obs.Ctx.attrib obs;
  }

(** [artifact_json ?provenance outcome] is the machine-readable mix
    artifact (schema v4): scheduler configuration and accounting under
    ["mix"], the merged measured window under ["aggregate"], one entry
    per job under ["per_job"] (NOT ["jobs"] — that key is
    provenance-skipped by [pcolor diff]), the cycle-epoch ["timeline"]
    when sampling is on, plus the usual ["metrics"] and
    cross-address-space ["attribution"] sections when collected.
    [pcolor explain] and [pcolor diff] consume it as they do a run
    artifact. *)
let artifact_json ?provenance outcome =
  let module J = Pcolor_obs.Json in
  let st = outcome.sched_stats in
  let invocations, scanned, second_chances, evictions = Reclaim.stats outcome.reclaim in
  let per_job =
    Array.to_list outcome.jobs
    |> List.map (fun (j : Job.t) ->
           J.Obj
             [
               ("asid", J.Int j.Job.asid);
               ("name", J.Str j.Job.spec.Job.name);
               ("policy", J.Str (Run.policy_name j.Job.spec.Job.policy));
               ("first_cpu", J.Int j.Job.first_cpu);
               ("width", J.Int j.Job.width);
               ("dispatches", J.Int j.Job.dispatches);
               ( "l2_measured",
                 J.Obj
                   (List.map
                      (fun cls ->
                        (Mclass.to_string cls, J.Int (Mclass.get j.Job.l2_measured cls)))
                      Mclass.all) );
               ("report", Report.to_json (outcome.reports.(j.Job.asid)));
             ])
  in
  let fields =
    [ ("schema_version", J.Int Pcolor_obs.Provenance.schema_version) ]
    @ (match provenance with
      | Some p -> [ ("provenance", Pcolor_obs.Provenance.to_json p) ]
      | None -> [])
    @ [
        ( "mix",
          J.Obj
            [
              ("policy", J.Str (Sched.policy_name outcome.sched_cfg.Sched.policy));
              ("tlb", J.Str (Sched.tlb_mode_name outcome.sched_cfg.Sched.tlb));
              ("quantum", J.Int outcome.sched_cfg.Sched.quantum);
              ("switch_cost", J.Int outcome.sched_cfg.Sched.switch_cost);
              ("n_jobs", J.Int (Array.length outcome.jobs));
              ("va_span", J.Int outcome.va_span);
              ("frames_total", J.Int (Frame_pool.total_frames outcome.pool));
              ("frames_free", J.Int (Frame_pool.free_frames outcome.pool));
              ("dispatches", J.Int st.Sched.dispatches);
              ("switches", J.Int st.Sched.switches);
              ("switch_cycles", J.Int st.Sched.switch_cycles);
              ("tlb_flushes", J.Int st.Sched.tlb_flushes);
              ( "reclaim",
                J.Obj
                  [
                    ("invocations", J.Int invocations);
                    ("scanned", J.Int scanned);
                    ("second_chances", J.Int second_chances);
                    ("evictions", J.Int evictions);
                  ] );
            ] );
        ("aggregate", Report.to_json outcome.aggregate);
        ("per_job", J.Arr per_job);
      ]
    @ (match M.timeline_json outcome.machine with
      | Some tl -> [ ("timeline", tl) ]
      | None -> [])
    @ (match outcome.metrics with
      | Some snap -> [ ("metrics", Pcolor_obs.Metrics.to_json snap) ]
      | None -> [])
    @
    match outcome.attrib with
    | Some a ->
      let spaces =
        Array.to_list outcome.jobs |> List.map (fun (j : Job.t) -> (j.Job.kernel, Job.program j))
      in
      [
        ( "attribution",
          Audit.attribution_json_spaces ~spaces ~page_size:outcome.cfg.Config.page_size a );
      ]
    | None -> []
  in
  J.Obj fields
