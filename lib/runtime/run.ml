(** Top-level experiment runner: program × machine × policy → report.

    This is the one-call entry point the CLI, the examples and the bench
    harness use.  It performs the full pipeline the paper describes:
    compiler summary extraction, data layout (§5.4), CDPC hint generation
    (§5.2), OS policy construction, and simulated execution of the
    representative window.  The reference stream comes from the runs
    engine unless the setup picks the interpreter oracle;
    [default_setup] defines that default once, and multiprogrammed jobs
    ({!Pcolor_sched}) inherit it. *)

module Ir = Pcolor_comp.Ir

(** Page-mapping strategy for a run.  [Cdpc ~via_touch:true] realizes
    the hints by touching pages in coloring order on a bin-hopping
    kernel — the paper's Digital UNIX implementation; [via_touch:false]
    is the IRIX madvise-style kernel extension.
    [Bin_hopping_unaligned] additionally disables §5.4's data alignment
    and padding (Figure 9's fourth variant). *)
type policy_choice =
  | Page_coloring
  | Bin_hopping
  | Bin_hopping_unaligned
  | Random_colors
  | Cdpc of { fallback : [ `Page_coloring | `Bin_hopping ]; via_touch : bool }
  | Cdpc_hash of { fallback : [ `Page_coloring | `Bin_hopping ] }
      (** hash-aware CDPC (DESIGN §16): §5.2 hints kept verbatim as bin
          targets, realized on a frame pool whose bins invert the
          configured LLC slice hash; identical to [Cdpc ~via_touch:false]
          under the identity hash *)
  | Dynamic_recoloring of { base : [ `Page_coloring | `Bin_hopping ] }
      (** extension: a §2.1-style dynamic policy — conflict-miss
          counters trigger page recoloring between phases, with the
          multiprocessor costs (copy, TLB shootdowns, cache
          invalidations) charged *)

(** The paper's two CDPC realizations: the IRIX madvise-style kernel
    extension (Figures 6-8) and page touching in coloring order on the
    bin-hopping kernel (Digital UNIX, Figure 9 and Table 2). *)
let cdpc = Cdpc { fallback = `Page_coloring; via_touch = false }

let cdpc_touch = Cdpc { fallback = `Bin_hopping; via_touch = true }

(** [policy_name c] is the report label. *)
let policy_name = function
  | Page_coloring -> "page-coloring"
  | Bin_hopping -> "bin-hopping"
  | Bin_hopping_unaligned -> "bin-hopping-unaligned"
  | Random_colors -> "random"
  | Cdpc { via_touch = true; _ } -> "cdpc-touch"
  | Cdpc { via_touch = false; fallback = `Page_coloring } -> "cdpc"
  | Cdpc { via_touch = false; fallback = `Bin_hopping } -> "cdpc-bh"
  | Cdpc_hash { fallback = `Page_coloring } -> "cdpc-hash"
  | Cdpc_hash { fallback = `Bin_hopping } -> "cdpc-hash-bh"
  | Dynamic_recoloring { base = `Page_coloring } -> "dynamic(pc)"
  | Dynamic_recoloring { base = `Bin_hopping } -> "dynamic(bh)"

(** [policy_of_name s] inverts {!policy_name} and also accepts the short
    CLI spellings ([pc], [bh], [dynamic], ...), so a label stored in a
    tape header parses back to the policy that wrote it. *)
let policy_of_name = function
  | "pc" | "page-coloring" -> Ok Page_coloring
  | "bh" | "bin-hopping" -> Ok Bin_hopping
  | "bh-unaligned" | "bin-hopping-unaligned" -> Ok Bin_hopping_unaligned
  | "random" -> Ok Random_colors
  | "cdpc" -> Ok cdpc
  | "cdpc-bh" -> Ok (Cdpc { fallback = `Bin_hopping; via_touch = false })
  | "cdpc-touch" -> Ok cdpc_touch
  | "cdpc-hash" -> Ok (Cdpc_hash { fallback = `Page_coloring })
  | "cdpc-hash-bh" -> Ok (Cdpc_hash { fallback = `Bin_hopping })
  | "dynamic" | "dynamic(pc)" -> Ok (Dynamic_recoloring { base = `Page_coloring })
  | "dynamic-bh" | "dynamic(bh)" -> Ok (Dynamic_recoloring { base = `Bin_hopping })
  | s -> Error ("unknown policy: " ^ s)

type setup = {
  cfg : Pcolor_memsim.Config.t;
  make_program : unit -> Ir.program;
      (** must return a {e fresh} program: layout mutates array bases *)
  policy : policy_choice;
  prefetch : bool;
  seed : int;
  cap : int; (** max simulated occurrences per phase (window size) *)
  mem_frames : int option; (** physical memory size; [None] = ample *)
  collect_trace : bool;
  check_bounds : bool;
  cdpc_ablation : Pcolor_cdpc.Colorer.ablation;
      (** disable individual CDPC steps for ablation studies *)
  obs : Pcolor_obs.Ctx.t;
      (** observability context (metrics registry, trace buffer);
          [Ctx.disabled] by default — runs are byte-identical with it off *)
  engine : Engine.kind;
      (** reference-stream generation strategy ([Runs] by default);
          [Interp] is the byte-identity oracle *)
}

(** [default_setup ~cfg ~make_program ~policy] fills conservative
    defaults (no prefetch, seed 42, window cap 2, ample memory,
    observability off, runs engine). *)
let default_setup ~cfg ~make_program ~policy =
  {
    cfg;
    make_program;
    policy;
    prefetch = false;
    seed = 42;
    cap = 2;
    mem_frames = None;
    collect_trace = false;
    check_bounds = false;
    cdpc_ablation = Pcolor_cdpc.Colorer.full_algorithm;
    obs = Pcolor_obs.Ctx.disabled;
    engine = Engine.Runs;
  }

type outcome = {
  cfg : Pcolor_memsim.Config.t; (* the machine the run used *)
  report : Pcolor_stats.Report.t;
  totals : Pcolor_stats.Totals.t;
  program : Ir.program;
  summary : Pcolor_comp.Summary.t;
  hints_info : Pcolor_cdpc.Colorer.info option;
  trace : (int * int) list; (* (vpage, cpu) if collected *)
  kernel : Pcolor_vm.Kernel.t;
  machine : Pcolor_memsim.Machine.t;
      (* post-run machine: cumulative (unweighted) measured-pass stats,
         for throughput accounting and detailed probes *)
  recolorings : int; (* dynamic-recoloring extension: pages moved *)
  hash_inversion : string option;
      (* hash-aware CDPC: decision-log label of the inversion used,
         e.g. "hash-inverse(sandybridge)"; None for every other policy *)
  metrics : Pcolor_obs.Metrics.snapshot option;
      (* snapshot of the run's registry, if one was attached *)
  attrib : Pcolor_obs.Attrib.t option;
      (* the run's conflict-attribution engine, if one was attached *)
}

(** [layout setup] is the layout step: a fresh checked program, its
    compiler summary and its §5.4 layout ([Natural] placement for
    [Bin_hopping_unaligned], [Aligned] for every other policy),
    returned with the first byte past the laid-out data segment.  The
    one place the summary and the layout are derived. *)
let layout (setup : setup) =
  let cfg = setup.cfg in
  let program = setup.make_program () in
  Ir.check_program program;
  let summary = Pcolor_comp.Summary.extract ~page_size:cfg.page_size program in
  let mode =
    match setup.policy with
    | Bin_hopping_unaligned -> Pcolor_cdpc.Align.Natural
    | _ -> Pcolor_cdpc.Align.Aligned
  in
  ( program,
    summary,
    Pcolor_cdpc.Align.layout ~cfg ~mode ~groups:summary.Pcolor_comp.Summary.groups program.arrays )

(** The front half of a run — everything before a kernel/machine exists:
    a fresh checked program, its compiler summary, the §5.4 layout
    (relocated by [relocate] bytes), CDPC hints keyed by the relocated
    addresses, and the constructed mapping policy. *)
type prepared = {
  program : Ir.program;
  summary : Pcolor_comp.Summary.t;
  hints_info : (Pcolor_vm.Hints.t * Pcolor_cdpc.Colorer.info) option;
  policy : Pcolor_vm.Policy.t;
  layout_end : int; (* first byte past the laid-out data segment (post-relocation) *)
}

(** [prepare ?relocate setup] runs the compile-time pipeline: the
    {!layout} step, hint generation and policy construction.
    [relocate] (default 0) shifts every array base after layout — the
    multiprogramming subsystem's address-space tagging: job [asid] is
    relocated by [asid × va_span] so the jobs' virtual pages are
    disjoint, and because the shift is a multiple of
    [n_colors × page_size] every page keeps its [vpage mod n_colors],
    leaving per-job policy behaviour unchanged.  A relocation of 0 is a
    no-op, so single runs are untouched. *)
let prepare ?(relocate = 0) (setup : setup) =
  let cfg = setup.cfg in
  let program, summary, layout_end = layout setup in
  if relocate <> 0 then
    List.iter (fun (a : Ir.array_decl) -> a.base <- a.base + relocate) program.arrays;
  let n_colors = Pcolor_memsim.Config.n_colors cfg in
  let hints_info =
    match setup.policy with
    | Cdpc _ | Cdpc_hash _ ->
      (* hash-aware CDPC generates the same §5.2 hints — positions are
         already the right bin schedule; the hash inversion happens in
         the frame pool [build] classifies, not here *)
      let hints, info =
        Pcolor_cdpc.Colorer.generate_ablated ~ablation:setup.cdpc_ablation ~cfg ~summary
          ~program ~n_cpus:cfg.n_cpus
      in
      Some (hints, info)
    | _ -> None
  in
  let policy_spec, race_jitter =
    match setup.policy with
    | Page_coloring -> (Pcolor_vm.Policy.Base Page_coloring, false)
    | Bin_hopping | Bin_hopping_unaligned ->
      (* the kernel counter race needs concurrent faulters *)
      (Pcolor_vm.Policy.Base Bin_hopping, cfg.n_cpus > 1)
    | Random_colors -> (Pcolor_vm.Policy.Base Random, false)
    | Cdpc { via_touch = true; _ } ->
      (* user-level implementation: plain bin-hopping kernel, pages
         touched in coloring order at startup (faults serialized) *)
      (Pcolor_vm.Policy.Base Bin_hopping, false)
    | Cdpc { via_touch = false; fallback } | Cdpc_hash { fallback } ->
      let fb : Pcolor_vm.Policy.base =
        match fallback with `Page_coloring -> Page_coloring | `Bin_hopping -> Bin_hopping
      in
      let hints = fst (Option.get hints_info) in
      (Pcolor_vm.Policy.Hinted { hints; fallback = fb }, false)
    | Dynamic_recoloring { base = `Page_coloring } -> (Pcolor_vm.Policy.Base Page_coloring, false)
    | Dynamic_recoloring { base = `Bin_hopping } ->
      (Pcolor_vm.Policy.Base Bin_hopping, cfg.n_cpus > 1)
  in
  let policy = Pcolor_vm.Policy.create ~n_colors ~seed:setup.seed ~race_jitter policy_spec in
  { program; summary; hints_info; policy; layout_end = layout_end + relocate }

(** A run's simulated components, wired and not yet started: what
    {!wire} returns and {!finish} turns into an {!outcome}. *)
type built = {
  setup : setup;
  prepared : prepared;
  kernel : Pcolor_vm.Kernel.t;
  machine : Pcolor_memsim.Machine.t;
  engine : Engine.t;
  recolorer : Recolor.t option; (* the dynamic-recoloring daemon *)
  after_phase : unit -> unit; (* its traced round; a no-op without one *)
}

(** [wire ?cpus ?recorder setup prepared ~kernel ~machine] is the
    wiring step over an existing kernel and machine: the engine on
    [cpus] (default: every CPU) with the software-prefetch plan when
    [setup.prefetch] is set, and for a dynamic-recoloring policy the
    daemon, whose round [after_phase] runs on the range's master CPU. *)
let wire ?cpus ?recorder (setup : setup) prepared ~kernel ~machine =
  let plans =
    if setup.prefetch then Pcolor_comp.Prefetcher.plan setup.cfg prepared.program
    else Pcolor_comp.Prefetcher.none
  in
  let engine =
    Engine.create ~check_bounds:setup.check_bounds ~collect_trace:setup.collect_trace
      ~obs:setup.obs ~engine:setup.engine ?cpus ?recorder ~machine ~kernel
      ~program:prepared.program ~plans ()
  in
  let recolorer =
    match setup.policy with
    | Dynamic_recoloring _ -> Some (Recolor.create ~machine ~kernel ())
    | _ -> None
  in
  let after_phase () =
    match recolorer with
    | Some rc ->
      let trigger_cpu = fst (Engine.cpus engine) + Pcolor_comp.Schedule.master in
      let moved = Recolor.round rc ~trigger_cpu in
      if moved > 0 then
        Option.iter
          (fun buf ->
            Pcolor_obs.Trace.instant buf
              ~ts:(Pcolor_memsim.Machine.cpu_time machine ~cpu:trigger_cpu)
              ~tid:trigger_cpu ~cat:"vm"
              ~args:[ ("pages_moved", Pcolor_obs.Json.Int moved) ]
              "recoloring")
          (Pcolor_obs.Ctx.trace setup.obs)
    | None -> ()
  in
  { setup; prepared; kernel; machine; engine; recolorer; after_phase }

(** [touch b] faults a cdpc-touch run's pages in coloring order (§5.3);
    a no-op under every other policy. *)
let touch { setup; prepared; engine; _ } =
  match setup.policy with
  | Cdpc { via_touch = true; _ } ->
    Engine.touch_pages_in_order engine
      (Pcolor_cdpc.Colorer.order (snd (Option.get prepared.hints_info)))
  | _ -> ()

(** [build ?recorder setup] prepares the program, creates the kernel (a
    hash-aware policy gets the bin-classified pool) and the machine,
    and {!wire}s them. *)
let build ?recorder (setup : setup) =
  let cfg = setup.cfg in
  let prepared = prepare setup in
  let classify =
    match setup.policy with
    | Cdpc_hash _ -> Some (Pcolor_cdpc.Hcolorer.classify cfg)
    | _ -> None
  in
  let kernel =
    Pcolor_vm.Kernel.create ~cfg ~policy:prepared.policy ?mem_frames:setup.mem_frames ?classify ()
  in
  let machine = Pcolor_memsim.Machine.create ~obs:setup.obs cfg in
  wire ?recorder setup prepared ~kernel ~machine

(** [close ~obs ~publish machine] is the close step: the final timeline
    flush (partial rows make column sums equal the aggregates) and its
    trace counter events, the machine's metrics then [publish]'s, the
    snapshot, and the observability flush. *)
let close ~obs ~publish machine =
  Pcolor_memsim.Machine.sample_flush machine;
  Option.iter (Pcolor_memsim.Machine.emit_timeline_counters machine) (Pcolor_obs.Ctx.trace obs);
  let snapshot =
    Option.map
      (fun reg ->
        Pcolor_memsim.Machine.publish_metrics machine reg;
        publish reg;
        Pcolor_obs.Metrics.snapshot reg)
      (Pcolor_obs.Ctx.metrics obs)
  in
  Pcolor_obs.Ctx.flush obs;
  snapshot

(** [finish b totals] closes the run (with the kernel's and the
    recoloring daemon's counters) and builds the report. *)
let finish { setup; prepared; kernel; machine; engine; recolorer; _ } totals =
  let cfg = setup.cfg in
  let metrics =
    close ~obs:setup.obs machine ~publish:(fun reg ->
        Pcolor_vm.Kernel.publish_metrics kernel reg;
        Option.iter
          (fun rc ->
            let rounds, moved, copy_cycles = Recolor.stats rc in
            let c name = Pcolor_obs.Metrics.counter reg name in
            Pcolor_obs.Metrics.add (c "recolor.rounds") rounds;
            Pcolor_obs.Metrics.add (c "recolor.pages_moved") moved;
            Pcolor_obs.Metrics.add (c "recolor.copy_cycles") copy_cycles)
          recolorer)
  in
  let pool = Pcolor_vm.Kernel.pool kernel in
  let report =
    Pcolor_stats.Report.of_totals ~benchmark:prepared.program.name ~machine:cfg.name
      ~n_cpus:cfg.n_cpus ~policy:(policy_name setup.policy) ~prefetch:setup.prefetch
      ~page_faults:(Pcolor_vm.Kernel.faults kernel)
      ~hints_honored:(Pcolor_vm.Frame_pool.honored pool)
      ~hints_fallback:(Pcolor_vm.Frame_pool.fallbacks pool)
      totals
  in
  {
    cfg;
    report;
    totals;
    program = prepared.program;
    summary = prepared.summary;
    hints_info = Option.map snd prepared.hints_info;
    trace = Engine.trace_points engine;
    kernel;
    machine;
    recolorings =
      (match recolorer with Some rc -> (fun (_, r, _) -> r) (Recolor.stats rc) | None -> 0);
    hash_inversion =
      (match setup.policy with
      | Cdpc_hash _ -> Some (Pcolor_cdpc.Hcolorer.inversion_name cfg)
      | _ -> None);
    metrics;
    attrib = Pcolor_obs.Ctx.attrib setup.obs;
  }

(** [run ?recorder setup] executes one experiment end to end.
    [recorder] (requires the runs engine) tees every simulation event
    to a binary-trace writer ({!Btrace}). *)
let run ?recorder (setup : setup) =
  let b = build ?recorder setup in
  (* Pool exhaustion surfaces as a diagnostic (PCOLOR_LOG channel) with
     the faulting CPU/page and the pool state before propagating, so a
     too-small --mem-frames reads as a finding, not a crash site. *)
  let guard_oom f =
    try f ()
    with Pcolor_vm.Kernel.Out_of_frames { cpu; vpage } as e ->
      let pool = Pcolor_vm.Kernel.pool b.kernel in
      Logs.err ~src:Pcolor_obs.Log.src (fun m ->
          m "out of physical frames: cpu%d faulting vpage %d with %d/%d frames free — raise mem_frames or enable reclaim (pcolor mix)"
            cpu vpage
            (Pcolor_vm.Frame_pool.free_frames pool)
            (Pcolor_vm.Frame_pool.total_frames pool));
      raise e
  in
  guard_oom (fun () -> touch b);
  let totals =
    guard_oom (fun () -> Engine.run b.engine ~cap:setup.cap ~after_phase:b.after_phase ())
  in
  finish b totals

(** [artifact_json ?provenance outcome] is the machine-readable run
    artifact: schema version, provenance, the report, the metrics
    snapshot, the conflict-attribution section and the §5.2 decision
    log (each section present only when collected — schema v2). *)
let artifact_json ?provenance outcome =
  let module J = Pcolor_obs.Json in
  let fields =
    [ ("schema_version", J.Int Pcolor_obs.Provenance.schema_version) ]
    @ (match provenance with
      | Some p -> [ ("provenance", Pcolor_obs.Provenance.to_json p) ]
      | None -> [])
    @ [ ("report", Pcolor_stats.Report.to_json outcome.report) ]
    @ (match outcome.metrics with
      | Some snap -> [ ("metrics", Pcolor_obs.Metrics.to_json snap) ]
      | None -> [])
    @ (match outcome.attrib with
      | Some a ->
        [
          ( "attribution",
            Audit.attribution_json ~spaces:[ (outcome.kernel, outcome.program) ]
              ~page_size:outcome.cfg.page_size a );
        ]
      | None -> [])
    @ (match Pcolor_memsim.Machine.timeline_json outcome.machine with
      | Some tl -> [ ("timeline", tl) ]
      | None -> [])
    @
    match outcome.hints_info with
    | Some info ->
      [ ("coloring_decisions", Audit.decisions_json ?hash:outcome.hash_inversion info) ]
    | None -> []
  in
  J.Obj fields
