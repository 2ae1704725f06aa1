(* pcolor — command-line driver for the compiler-directed page coloring
   reproduction.

   Subcommands:
     list      the workload catalog (Table 1)
     run       one benchmark under one policy, full report
     compare   one benchmark across all policies
     mix       a multiprogrammed job mix over one shared frame pool
     pattern   page-level access patterns (Figures 3 and 5)
     hints     CDPC hint placement dump
     summary   the compiler's access-pattern summary (§5.1) *)

open Cmdliner
module Run = Pcolor.Runtime.Run
module Engine = Pcolor.Runtime.Engine
module Btrace = Pcolor.Runtime.Btrace
module Report = Pcolor.Stats.Report
module Config = Pcolor.Memsim.Config
module Spec = Pcolor.Workloads.Spec

(* ---- shared arguments ---- *)

(* A bad command-line value is one stderr line naming the flag and exit
   2, never an uncaught exception. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let bench_arg =
  let doc = "Benchmark name (" ^ String.concat ", " Spec.names ^ ")." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let cpus_arg =
  Arg.(
    value & opt int 8
    & info [ "p"; "cpus" ] ~docv:"N"
        ~doc:(Printf.sprintf "Number of processors, 1 to %d." Config.max_cpus))

let scale_arg =
  Arg.(
    value & opt int 16
    & info [ "s"; "scale" ]
        ~docv:"S"
        ~doc:
          "Data-set/cache scale divisor (1 = the paper's full geometry; 4 recommended for \
           experiments; 16 for quick looks). Use 1, 4, 16, 64 or 256.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed (bin-hopping race).")

let cap_arg =
  let checked cap =
    if cap < 1 then usage_error "--cap: need at least one phase occurrence (got %d)" cap;
    cap
  in
  Term.(
    const checked
    $ Arg.(value & opt int 2 & info [ "cap" ] ~doc:"Representative-window phase occurrence cap."))

let prefetch_arg =
  Arg.(value & flag & info [ "prefetch" ] ~doc:"Enable compiler-inserted prefetching.")

let machine_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) Config.models)) "sgi"
    & info [ "m"; "machine" ]
        ~doc:"Machine model: $(b,sgi) (1MB DM), $(b,sgi-2way), $(b,sgi-4mb), $(b,alpha).")

let policy_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (Run.policy_of_name s)),
      fun fmt p -> Format.pp_print_string fmt (Run.policy_name p) )

let policy_arg =
  Arg.(
    value
    & opt policy_conv (Run.Cdpc { fallback = `Page_coloring; via_touch = false })
    & info [ "policy" ]
        ~doc:"Mapping policy: $(b,pc), $(b,bh), $(b,bh-unaligned), $(b,random), $(b,cdpc), \
              $(b,cdpc-bh), $(b,cdpc-touch), $(b,cdpc-hash), $(b,cdpc-hash-bh), $(b,dynamic), \
              $(b,dynamic-bh).")

let engine_arg =
  Arg.(
    value
    & opt
        (enum [ ("runs", Engine.Runs); ("interp", Engine.Interp) ])
        Engine.Runs
    & info [ "engine" ]
        ~doc:
          "Reference-stream engine: $(b,runs) (precompiled affine walkers emitting \
           run-length-coalesced records, with bulk L1-hit retirement; the default) or \
           $(b,interp) (the per-depth interpreter — slower, kept as the byte-identity \
           oracle).")

let trace_arg =
  let env = Cmd.Env.info "PCOLOR_TRACE" ~doc:"Trace file path (same as $(b,--trace))." in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~env ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSONL stream to $(docv) (load in Perfetto or \
           chrome://tracing).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the machine-readable run artifact (report + metrics + provenance) to $(docv).")

let timeline_arg =
  Arg.(
    value
    & opt ~vopt:(Some Pcolor.Obs.Sampler.default_epoch_cycles) (some int) None
    & info [ "timeline" ] ~docv:"CYCLES"
        ~doc:
          "Sample the full counter set every $(docv) simulated cycles (default 1000000 when \
           given without a value) into the artifact's \"timeline\" section and, with \
           $(b,--trace), Perfetto counter tracks. Render with $(b,pcolor timeline).")

let prof_arg =
  Arg.(
    value & flag
    & info [ "prof" ]
        ~doc:
          "Self-profile the host process: bracket walker fill, consume/retire, reclaim and \
           artifact serialization with wall-clock and GC deltas, printed as a separate table \
           after the run. Off by default; when off the run is byte-identical and the hot path \
           allocation-free.")

(* An output file is checked before anything runs, so a missing
   directory is one stderr line naming the flag, not a [Sys_error]
   after the whole simulation. *)
let check_out_path ~flag path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    usage_error "%s: %s: no such directory %s" flag path dir;
  if Sys.file_exists path && Sys.is_directory path then
    usage_error "%s: %s: is a directory" flag path

let find_bench bench =
  match Spec.find bench with d -> d | exception Invalid_argument msg -> usage_error "%s" msg

let check_scale scale =
  if not (List.mem scale Pcolor.Workloads.Gen.scales) then
    usage_error "--scale: %s (got %d)" Pcolor.Workloads.Gen.scales_doc scale

(* The CPU count and scale are checked here, before anything is built,
   because every command that simulates goes through [machine_term].  An
   accepted scale can still be too large for a machine model (256 leaves
   the 1 MB direct-mapped L2 one color), which is a usage error too.
   [slices]/[llc_hash] (the hashed/sliced LLC, DESIGN §16) are applied
   AFTER scaling — the scaled geometry determines the color count the
   hash must divide — and re-validated, so an impossible combination
   (slices > colors, rank-deficient masks) fails with a message rather
   than a backtrace. *)
let config_of ?slices ?llc_hash model n_cpus scale =
  if n_cpus < 1 then usage_error "--cpus: need at least one CPU (got %d)" n_cpus;
  if n_cpus > Config.max_cpus then
    usage_error "--cpus: at most %d CPUs (got %d)" Config.max_cpus n_cpus;
  check_scale scale;
  let cfg =
    try Config.scale ((List.assoc model Config.models) ~n_cpus ()) scale
    with Invalid_argument msg ->
      usage_error "--scale: %d is too large for the %s machine model (%s)" scale model msg
  in
  match (slices, llc_hash) with
  | None, None -> cfg
  | _ -> (
    try
      Config.validate
        {
          cfg with
          Config.l2_slices = Option.value slices ~default:cfg.Config.l2_slices;
          l2_hash = Option.value llc_hash ~default:cfg.Config.l2_hash;
        }
    with Invalid_argument msg -> usage_error "--slices/--llc-hash: %s" msg)

let slices_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "slices" ] ~docv:"K"
        ~doc:
          "Split the external cache into $(docv) hash-routed slices (power of two dividing the \
           color count; default 1 = the paper's monolithic cache).")

let llc_hash_conv =
  Arg.conv
    ( (fun s ->
        match Pcolor.Memsim.Ahash.spec_of_string s with
        | Ok v -> Ok v
        | Error e -> Error (`Msg e)),
      fun fmt s -> Format.pp_print_string fmt (Pcolor.Memsim.Ahash.spec_to_string s) )

let llc_hash_arg =
  Arg.(
    value
    & opt (some llc_hash_conv) None
    & info [ "llc-hash" ] ~docv:"HASH"
        ~doc:
          "Slice-selection hash: $(b,identity) (classic positional colors), $(b,xor-fold), \
           $(b,sandybridge), or $(b,masks:0x..,..) (explicit GF(2) mask rows over frame bits).")

(* A simulating command's machine: the checked config, its
   [Config.models] name and the scale divisor. *)
type machine = { cfg : Config.t; model : string; scale : int }

(* [--machine/-p/-s], plus [--slices/--llc-hash] when [sliced], checked
   through [config_of] before the command runs. *)
let machine_term ~sliced =
  let machine model n_cpus scale (slices, llc_hash) =
    { cfg = config_of ?slices ?llc_hash model n_cpus scale; model; scale }
  in
  let slicing =
    if sliced then Term.(const (fun s h -> (s, h)) $ slices_arg $ llc_hash_arg)
    else Term.const (None, None)
  in
  Term.(const machine $ machine_arg $ cpus_arg $ scale_arg $ slicing)

(* The run outputs, opened: a trace sink (when tracing), the artifact
   path, the host profiler (when [--prof]) and a constructor for per-run
   contexts.  Each run gets its own registry, attribution engine and
   trace buffer so parallel policy runs stay independent.  An artifact
   request ([--metrics-out]) turns on both the registry and conflict
   attribution: the artifact's "attribution" section is what [pcolor
   explain] renders. *)
type outputs = {
  trace_path : string option;
  sink : Pcolor.Obs.Trace.sink option;
  metrics_out : string option;
  prof : Pcolor.Obs.Prof.t option;
  fresh_ctx : unit -> Pcolor.Obs.Ctx.t;
}

(* [--trace/--metrics-out/--timeline], plus [--prof] when [prof]: the
   flags are checked at once, and the term yields a function that opens
   the outputs for a checked config. *)
let outputs_term ~prof =
  let outputs trace_path metrics_out timeline prof_flag =
    Option.iter
      (fun e -> if e < 1 then usage_error "--timeline: need a positive epoch (got %d cycles)" e)
      timeline;
    fun cfg ->
      Option.iter (check_out_path ~flag:"--metrics-out") metrics_out;
      let sink =
        Option.map
          (fun path ->
            try Pcolor.Obs.Trace.open_sink ~path
            with Sys_error msg -> usage_error "--trace: %s" msg)
          trace_path
      in
      let prof = if prof_flag then Some (Pcolor.Obs.Prof.create ()) else None in
      let fresh_ctx () =
        let metrics = Option.map (fun _ -> Pcolor.Obs.Metrics.create ()) metrics_out in
        let attrib =
          Option.map
            (fun _ ->
              Pcolor.Obs.Attrib.create ~n_colors:(Config.n_colors cfg)
                ~n_classes:(List.length Pcolor.Memsim.Mclass.all) ())
            metrics_out
        in
        let sampler =
          Option.map
            (fun epoch_cycles -> Pcolor.Memsim.Machine.sampler_for ~epoch_cycles cfg)
            timeline
        in
        let trace = Option.map Pcolor.Obs.Trace.buffer sink in
        Pcolor.Obs.Ctx.create ?metrics ?trace ?attrib ?sampler ?prof ()
      in
      { trace_path; sink; metrics_out; prof; fresh_ctx }
  in
  Term.(
    const outputs $ trace_arg $ metrics_out_arg $ timeline_arg
    $ if prof then prof_arg else const false)

(* The tail of every simulating command on machine [m], in order: the
   artifact ([json] of its provenance stamp, built and written inside
   the profiler's Serialize bracket), the profile table, the trace
   sink's close. *)
let finish_outputs io m ~what ~seed ?(jobs = 1) json =
  let module Prof = Pcolor.Obs.Prof in
  Option.iter
    (fun path ->
      let provenance =
        Pcolor.Obs.Provenance.collect ~scale:m.scale ~jobs ~seed
          ~config_hash:(Pcolor.Obs.Provenance.hash_value m.cfg)
          ()
      in
      Option.iter (fun p -> Prof.start p Prof.Serialize) io.prof;
      (try
         Out_channel.with_open_text path (fun oc ->
             output_string oc (Pcolor.Obs.Json.pretty (json provenance));
             output_char oc '\n')
       with Sys_error msg -> usage_error "--metrics-out: %s" msg);
      Option.iter (fun p -> Prof.stop p Prof.Serialize) io.prof;
      Printf.eprintf "wrote %s artifact to %s\n%!" what path)
    io.metrics_out;
  Option.iter (fun p -> print_string (Prof.render p)) io.prof;
  Option.iter Pcolor.Obs.Trace.close io.sink;
  Option.iter (fun path -> Printf.eprintf "wrote trace to %s\n%!" path) io.trace_path

let setup_of m bench policy prefetch seed cap =
  let d = find_bench bench in
  {
    (Run.default_setup ~cfg:m.cfg ~make_program:(fun () -> d.build ~scale:m.scale ()) ~policy) with
    prefetch;
    seed;
    cap;
  }

(* ---- list ---- *)

let list_cmd =
  let action () =
    let t =
      Pcolor.Util.Table.create ~title:"SPEC95fp workload catalog (Table 1)"
        [ "benchmark"; "data set (MB)"; "in Fig. 6"; "personality" ]
    in
    List.iter
      (fun (d : Spec.descriptor) ->
        Pcolor.Util.Table.add_row t
          [
            d.name;
            Pcolor.Util.Table.fcell ~prec:1 d.table1_mb;
            (if d.in_figure6 then "yes" else "no");
            d.character;
          ])
      Spec.all;
    Pcolor.Util.Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"Show the workload catalog (Table 1).")
    Term.(const action $ const ())

(* ---- run ---- *)

let run_cmd =
  let action bench m policy prefetch seed cap engine open_outputs =
    let io = open_outputs m.cfg in
    let o =
      Run.run { (setup_of m bench policy prefetch seed cap) with obs = io.fresh_ctx (); engine }
    in
    Format.printf "%a@." Report.pp o.report;
    finish_outputs io m ~what:"run" ~seed (fun provenance -> Run.artifact_json ~provenance o)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark under one policy and print the report.")
    Term.(
      const action $ bench_arg $ machine_term ~sliced:true $ policy_arg $ prefetch_arg $ seed_arg
      $ cap_arg $ engine_arg $ outputs_term ~prof:true)

(* ---- compare ---- *)

let compare_cmd =
  let action bench m prefetch seed cap engine open_outputs =
    let hashed = m.cfg.Config.l2_slices > 1 in
    let policies =
      [
        Run.Page_coloring;
        Run.Bin_hopping;
        Run.Random_colors;
        Run.Cdpc { fallback = `Page_coloring; via_touch = false };
      ]
      (* on a hashed machine the interesting fifth column is the
         hash-aware variant — what coloring recovers once the OS knows
         the hash *)
      @ (if hashed then [ Run.Cdpc_hash { fallback = `Page_coloring } ] else [])
    in
    (* look the bench up before fanning out, so a bad name is reported once *)
    ignore (find_bench bench);
    let io = open_outputs m.cfg in
    let jobs = min (Pcolor.Util.Pool.default_jobs ()) (List.length policies) in
    (* each policy is an independent simulation: fan them out across
       PCOLOR_JOBS domains (PCOLOR_JOBS=1 for strictly sequential); the
       table renders from the ordered results, so output is identical
       for any job count.  Each policy run gets its own registry and
       trace buffer (own trace pid), so instrumented parallel runs stay
       independent and deterministic. *)
    let outcomes =
      Pcolor.Util.Pool.map ~jobs
        (fun policy ->
          Run.run
            { (setup_of m bench policy prefetch seed cap) with obs = io.fresh_ctx (); engine })
        policies
    in
    let reports = List.map (fun (o : Run.outcome) -> o.report) outcomes in
    let t =
      Pcolor.Util.Table.create
        ~title:(Printf.sprintf "%s, %d CPUs, scale 1/%d" bench m.cfg.Config.n_cpus m.scale)
        [ "policy"; "wall cycles"; "MCPI"; "conflict"; "capacity"; "comm"; "bus%" ]
    in
    let base = ref None in
    List.iter
      (fun (r : Report.t) ->
        if !base = None then base := Some r;
        let module C = Pcolor.Memsim.Mclass in
        Pcolor.Util.Table.add_row t
          [
            r.policy;
            Printf.sprintf "%.3e (%.2fx)" r.wall_cycles
              (Report.speedup ~base:r (Option.get !base));
            Pcolor.Util.Table.fcell r.mcpi;
            Printf.sprintf "%.0f" (Report.conflict_misses r);
            Printf.sprintf "%.0f" r.l2_misses_by_class.(C.index C.Capacity);
            Printf.sprintf "%.0f"
              (r.l2_misses_by_class.(C.index C.True_sharing)
              +. r.l2_misses_by_class.(C.index C.False_sharing));
            Pcolor.Util.Table.pcell (100.0 *. r.bus_occupancy);
          ])
      reports;
    Pcolor.Util.Table.print t;
    print_endline "(wall-cycle multiplier is relative to the first row; >1 = faster than it)";
    finish_outputs io m ~what:"compare" ~seed ~jobs (fun provenance ->
        let module J = Pcolor.Obs.Json in
        J.Obj
          [
            ("schema_version", J.Int Pcolor.Obs.Provenance.schema_version);
            ("provenance", Pcolor.Obs.Provenance.to_json provenance);
            ("runs", J.Arr (List.map (fun o -> Run.artifact_json o) outcomes));
          ])
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all mapping policies on one benchmark.")
    Term.(
      const action $ bench_arg $ machine_term ~sliced:true $ prefetch_arg $ seed_arg $ cap_arg
      $ engine_arg $ outputs_term ~prof:false)

(* ---- mix: multiprogrammed job mixes over one shared frame pool ---- *)

let mix_cmd =
  let benches_arg =
    let doc =
      "Benchmarks to co-schedule, one job each (" ^ String.concat ", " Spec.names ^ ")."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"BENCH" ~doc)
  in
  let sched_arg =
    Arg.(
      value
      & opt (enum [ ("gang", Pcolor.Sched.Scheduler.Gang); ("space", Pcolor.Sched.Scheduler.Space) ])
          Pcolor.Sched.Scheduler.Gang
      & info [ "sched" ]
          ~doc:
            "Placement: $(b,gang) time-shares the whole machine per quantum; $(b,space) pins \
             each job to a contiguous CPU partition.")
  in
  let quantum_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "quantum" ] ~docv:"CYCLES" ~doc:"Scheduling quantum in cycles.")
  in
  let switch_cost_arg =
    Arg.(
      value & opt int 10_000
      & info [ "switch-cost" ] ~docv:"CYCLES"
          ~doc:"Kernel cycles charged per CPU on a context switch (gang mode).")
  in
  let tlb_arg =
    Arg.(
      value
      & opt (enum [ ("flush", Pcolor.Sched.Scheduler.Flush); ("asid", Pcolor.Sched.Scheduler.Asid) ])
          Pcolor.Sched.Scheduler.Asid
      & info [ "tlb" ]
          ~doc:
            "TLB behaviour on a context switch: $(b,flush) (untagged TLBs) or $(b,asid) \
             (tagged; translations survive).")
  in
  let mem_frames_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-frames" ] ~docv:"N"
          ~doc:
            "Shared physical frames (default: ample). Shrink to force hint competition and \
             second-chance reclaim.")
  in
  let mix_policy_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ] ~docv:"P[,P...]"
          ~doc:
            "Per-job mapping policies, comma-separated (same names as $(b,pcolor run)); one \
             value is broadcast to every job. Default: $(b,cdpc).")
  in
  let action benches m sched_policy quantum switch_cost tlb mem_frames policy_str prefetch seed
      cap engine open_outputs =
    let module Sched = Pcolor.Sched.Scheduler in
    let k = List.length benches and n_cpus = m.cfg.Config.n_cpus in
    let policies =
      let names =
        match policy_str with None -> [ "cdpc" ] | Some s -> String.split_on_char ',' s
      in
      let parsed =
        List.map
          (fun name ->
            match Run.policy_of_name (String.trim name) with
            | Ok p -> p
            | Error e -> usage_error "--policy: %s" e)
          names
      in
      match parsed with
      | [ p ] -> List.init k (fun _ -> p)
      | ps when List.length ps = k -> ps
      | ps -> usage_error "--policy: %d policies for %d jobs" (List.length ps) k
    in
    (match mem_frames with
    | Some n when n < 1 -> usage_error "--mem-frames: need at least one frame (got %d)" n
    | _ -> ());
    if sched_policy = Sched.Space && k > n_cpus then
      usage_error "--sched: %d space-shared jobs on %d CPUs (need a CPU per job)" k n_cpus;
    let io = open_outputs m.cfg in
    let specs =
      List.map2
        (fun bench policy ->
          let d = find_bench bench in
          Pcolor.Sched.Job.spec ~policy ~prefetch ~seed ~engine_kind:engine ~name:bench (fun () ->
              d.build ~scale:m.scale ()))
        benches policies
    in
    let sched = { Sched.policy = sched_policy; quantum; switch_cost; tlb } in
    match Pcolor.Sched.Mix.run ~cfg:m.cfg ~sched ?mem_frames ~cap ~obs:(io.fresh_ctx ()) specs with
    | exception Pcolor.Vm.Kernel.Out_of_frames { cpu; vpage } ->
      Printf.eprintf
        "out of physical frames (cpu%d, vpage %d): the mix's working set exceeds --mem-frames \
         even after reclaim\n"
        cpu vpage;
      exit 1
    | outcome ->
      let t =
        Pcolor.Util.Table.create
          ~title:
            (Printf.sprintf "%d-job %s mix, %d CPUs, scale 1/%d, quantum %d" k
               (Sched.policy_name sched_policy)
               n_cpus m.scale quantum)
          [ "job"; "policy"; "cpus"; "wall cycles"; "MCPI"; "conflict"; "faults"; "honored%" ]
      in
      let module C = Pcolor.Memsim.Mclass in
      let row label policy cpus (r : Report.t) =
        Pcolor.Util.Table.add_row t
          [
            label;
            policy;
            cpus;
            Printf.sprintf "%.3e" r.wall_cycles;
            Pcolor.Util.Table.fcell r.mcpi;
            Printf.sprintf "%.0f" (Report.conflict_misses r);
            string_of_int r.page_faults;
            (let tot = r.hints_honored + r.hints_fallback in
             if tot = 0 then "-"
             else Printf.sprintf "%.0f" (100.0 *. float_of_int r.hints_honored /. float_of_int tot));
          ]
      in
      Array.iter
        (fun (j : Pcolor.Sched.Job.t) ->
          row
            (Printf.sprintf "%d:%s" j.Pcolor.Sched.Job.asid j.Pcolor.Sched.Job.spec.Pcolor.Sched.Job.name)
            (Run.policy_name j.Pcolor.Sched.Job.spec.Pcolor.Sched.Job.policy)
            (Printf.sprintf "%d+%d" j.Pcolor.Sched.Job.first_cpu j.Pcolor.Sched.Job.width)
            outcome.Pcolor.Sched.Mix.reports.(j.Pcolor.Sched.Job.asid))
        outcome.Pcolor.Sched.Mix.jobs;
      row "aggregate"
        (Sched.policy_name sched_policy)
        (Printf.sprintf "0+%d" n_cpus) outcome.Pcolor.Sched.Mix.aggregate;
      Pcolor.Util.Table.print t;
      let st = outcome.Pcolor.Sched.Mix.sched_stats in
      let invocations, _, second_chances, evictions =
        Pcolor.Sched.Reclaim.stats outcome.Pcolor.Sched.Mix.reclaim
      in
      Printf.printf
        "sched: %d dispatches, %d switches (%d cycles, %d TLB flushes); reclaim: %d \
         invocations, %d evictions, %d second chances\n"
        st.Sched.dispatches st.Sched.switches st.Sched.switch_cycles st.Sched.tlb_flushes
        invocations evictions second_chances;
      finish_outputs io m ~what:"mix" ~seed (fun provenance ->
          Pcolor.Sched.Mix.artifact_json ~provenance outcome)
  in
  Cmd.v
    (Cmd.info "mix"
       ~doc:
         "Run a multiprogrammed mix: each benchmark becomes a job with its own address space \
          and policy, competing for one shared frame pool under a gang or space-sharing \
          scheduler.")
    Term.(
      const action $ benches_arg $ machine_term ~sliced:true $ sched_arg $ quantum_arg
      $ switch_cost_arg $ tlb_arg $ mem_frames_arg $ mix_policy_arg $ prefetch_arg $ seed_arg
      $ cap_arg $ engine_arg $ outputs_term ~prof:true)

(* ---- probe: eviction-set hash recovery self-test ---- *)

let probe_cmd =
  let window_arg =
    Arg.(
      value
      & opt int Pcolor.Workloads.Probe.default_window
      & info [ "window" ] ~docv:"W"
          ~doc:
            "Frame bits probed above the group bits (the hash must not tap bits at or above \
             group_bits + $(docv)).")
  in
  let action { cfg; _ } window =
    let module Probe = Pcolor.Workloads.Probe in
    let module Ahash = Pcolor.Memsim.Ahash in
    let bound = Probe.max_window cfg in
    if window < 1 || window > bound then
      usage_error "--window: need 1 to %d frame bits on this machine (got %d)" bound window;
    let configured = Config.resolved_hash cfg in
    Printf.printf "machine %s: %d colors, %d slice(s), configured hash %s\n" cfg.Config.name
      (Config.n_colors cfg) cfg.Config.l2_slices (Ahash.name configured);
    match Probe.self_test ~window cfg with
    | Ok r ->
      print_string (Probe.render r);
      print_endline "probe self-test: recovered hash matches the configured partition"
    | Error (r, e) ->
      print_string (Probe.render r);
      Printf.eprintf "probe self-test FAILED: %s\n" e;
      exit 1
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:
         "Reverse-engineer the external cache's slice hash from eviction behaviour alone \
          (eviction-set conflict oracle + GF(2) matrix learning), render the recovered bit \
          matrix and check it against the configured hash. Exits 1 on mismatch — the \
          hashed-LLC self-test gate.")
    Term.(const action $ machine_term ~sliced:true $ window_arg)

(* ---- record / replay: binary reference traces ---- *)

let record_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Binary trace output path.")
  in
  let action bench m policy prefetch seed cap out open_outputs =
    (match policy with
    | Run.Dynamic_recoloring _ ->
      usage_error "record: dynamic recoloring depends on runtime feedback and cannot be \
                   replayed deterministically — pick a static policy"
    | _ -> ());
    let header =
      {
        Btrace.bench;
        machine = m.model;
        n_cpus = m.cfg.Config.n_cpus;
        scale = m.scale;
        policy = Run.policy_name policy;
        prefetch;
        seed;
        cap;
        provenance = Option.value ~default:"" (Pcolor.Obs.Provenance.git_describe ());
      }
    in
    check_out_path ~flag:"-o" out;
    (* every other output opens first: a refused one leaves no empty tape *)
    let io = open_outputs m.cfg in
    let oc = try open_out_bin out with Sys_error msg -> usage_error "-o: %s" msg in
    let w = Btrace.create_writer oc header in
    let setup = { (setup_of m bench policy prefetch seed cap) with obs = io.fresh_ctx () } in
    let o = Run.run ~recorder:(Btrace.recorder w) setup in
    Btrace.finish w;
    let bytes = pos_out oc in
    close_out oc;
    Format.printf "%a@." Report.pp o.report;
    finish_outputs io m ~what:"run" ~seed (fun provenance -> Run.artifact_json ~provenance o);
    Printf.eprintf "wrote %d-byte trace to %s\n%!" bytes out
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run one benchmark on the runs engine and stream every reference into a compact \
          binary trace (predicted run-coalesced records, format v3). The trace embeds its \
          setup, so \
          $(b,pcolor replay) needs only the file. Observability flags ($(b,--metrics-out), \
          $(b,--trace), $(b,--timeline)) apply to the recording run itself.")
    Term.(
      const action $ bench_arg $ machine_term ~sliced:false $ policy_arg $ prefetch_arg $ seed_arg
      $ cap_arg $ out_arg $ outputs_term ~prof:false)

let replay_cmd =
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Binary trace to replay.")
  in
  let action file open_outputs =
    if Sys.is_directory file then usage_error "%s: is a directory, not a trace" file;
    let ic = try open_in_bin file with Sys_error msg -> usage_error "%s" msg in
    (* a bad tape or header is a one-line message and exit 2, never a backtrace *)
    let die fmt =
      Printf.ksprintf
        (fun msg ->
          close_in_noerr ic;
          Printf.eprintf "%s: %s\n" file msg;
          exit 2)
        fmt
    in
    let r =
      try Btrace.open_reader ic with Btrace.Error c -> die "%s" (Btrace.corruption_message c)
    in
    let h = Btrace.header r in
    let model =
      match List.assoc_opt h.Btrace.machine Config.models with
      | Some model -> model
      | None -> die "unknown machine model %S in trace header" h.Btrace.machine
    in
    let policy =
      match Run.policy_of_name h.Btrace.policy with
      | Ok p -> p
      | Error _ -> die "unknown policy %S in trace header" h.Btrace.policy
    in
    if not (List.mem h.Btrace.bench Spec.names) then
      die "unknown benchmark %S in trace header" h.Btrace.bench;
    let m =
      try
        {
          cfg = Config.scale (model ~n_cpus:h.Btrace.n_cpus ()) h.Btrace.scale;
          model = h.Btrace.machine;
          scale = h.Btrace.scale;
        }
      with Invalid_argument msg -> die "%s (trace header)" msg
    in
    (* the sink an error below leaves open is flushed by [exit] *)
    let io = open_outputs m.cfg in
    let setup =
      {
        (setup_of m h.Btrace.bench policy h.Btrace.prefetch h.Btrace.seed h.Btrace.cap) with
        obs = io.fresh_ctx ();
      }
    in
    let o =
      try Btrace.replay r ~setup with
      | Btrace.Error c -> die "%s" (Btrace.corruption_message c)
      | Sys_error msg -> die "%s" msg
      | Invalid_argument msg ->
        (* the header passed the reader's checks but the workload
           cannot be built from it (e.g. a scale the kernel lacks) *)
        die "%s (trace header)" msg
    in
    close_in ic;
    Printf.printf "replaying %s: %s on %s, %d CPUs, scale 1/%d, policy %s%s%s\n" file
      h.Btrace.bench h.Btrace.machine h.Btrace.n_cpus h.Btrace.scale h.Btrace.policy
      (if h.Btrace.prefetch then ", prefetch" else "")
      (if h.Btrace.provenance = "" then "" else " (recorded at " ^ h.Btrace.provenance ^ ")");
    Format.printf "%a@." Report.pp o.report;
    finish_outputs io m ~what:"replay" ~seed:h.Btrace.seed (fun provenance ->
        Run.artifact_json ~provenance o)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-simulate a recorded binary trace: the reference stream comes off the file in \
          bounded batches (never materialized), and the counters come out byte-identical to \
          the recorded run. Observability flags ($(b,--metrics-out), $(b,--trace), \
          $(b,--timeline)) produce the same artifact sections a live run would.")
    Term.(const action $ file_arg $ outputs_term ~prof:false)

(* ---- pattern (Figures 3 and 5) ---- *)

(* The benchmark through the run's own compile-time pipeline under CDPC:
   the laid-out program and its §5.2 placement. *)
let cdpc_prepare m bench =
  let d = find_bench bench in
  Run.prepare
    (Run.default_setup ~cfg:m.cfg
       ~make_program:(fun () -> d.build ~scale:m.scale ())
       ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = false }))

let pattern_cmd =
  let order_arg =
    Arg.(
      value
      & opt (enum [ ("va", `Va); ("cdpc", `Cdpc) ]) `Va
      & info [ "order" ]
          ~doc:"X axis: $(b,va) = virtual-address order (Figure 3), $(b,cdpc) = coloring order \
                (Figure 5).")
  in
  let action bench ({ cfg; _ } as m) order =
    let n_cpus = cfg.Config.n_cpus in
    let p = cdpc_prepare m bench in
    let points, x_max, what =
      match order with
      | `Va ->
        let pts =
          Pcolor.Comp.Footprint.touch_points p.Run.program ~n_cpus ~page_size:cfg.page_size
        in
        let xm = 1 + List.fold_left (fun m (pg, _) -> max m pg) 0 pts in
        (pts, xm, "virtual-address order (Figure 3)")
      | `Cdpc ->
        let info = snd (Option.get p.Run.hints_info) in
        let pts = Pcolor.Cdpc.Colorer.coloring_order_points info in
        (pts, max 1 info.total_pages, "CDPC coloring order (Figure 5)")
    in
    print_string
      (Pcolor.Util.Chart.scatter
         ~title:
           (Printf.sprintf "%s, %d CPUs: pages touched, %s (colors wrap every %d pages)" bench
              n_cpus what (Config.n_colors cfg))
         ~cols:100 ~n_rows:n_cpus ~x_max points);
    (* per-CPU density over the occupied span *)
    List.iter
      (fun (cpu, distinct, span) ->
        Printf.printf "cpu%2d: %4d pages over a span of %4d (density %3.0f%%)\n" cpu distinct span
          (100.0 *. float_of_int distinct /. float_of_int span))
      (Pcolor.Util.Chart.density points)
  in
  Cmd.v
    (Cmd.info "pattern" ~doc:"Plot page-level access patterns (Figures 3 and 5).")
    Term.(const action $ bench_arg $ machine_term ~sliced:false $ order_arg)

(* ---- hints ---- *)

let hints_cmd =
  let action bench m =
    let p = cdpc_prepare m bench in
    Format.printf "%a@." Pcolor.Cdpc.Colorer.pp_placement (snd (Option.get p.Run.hints_info))
  in
  Cmd.v (Cmd.info "hints" ~doc:"Dump the CDPC hint placement for a benchmark.")
    Term.(const action $ bench_arg $ machine_term ~sliced:false)

(* ---- run-file: user-defined programs in the textual format ---- *)

let run_file_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Program file (.sexp).")
  in
  let action file { cfg; _ } policy prefetch seed cap =
    let setup =
      {
        (Run.default_setup ~cfg
           ~make_program:(fun () -> Pcolor.Comp.Text.of_file file)
           ~policy)
        with
        prefetch;
        seed;
        cap;
        check_bounds = true;
      }
    in
    match Run.run setup with
    | o -> Format.printf "%a@." Report.pp o.report
    | exception Pcolor.Comp.Sexp.Parse_error { line; col; msg } ->
      Printf.eprintf "%s:%d:%d: %s\n" file line col msg;
      exit 1
    | exception Pcolor.Comp.Text.Format_error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "run-file"
       ~doc:"Run a user-defined program (textual IR; see examples/programs/).")
    Term.(
      const action $ file_arg $ machine_term ~sliced:false $ policy_arg $ prefetch_arg $ seed_arg
      $ cap_arg)

(* ---- dump: export a built-in benchmark as text ---- *)

let dump_cmd =
  let action bench scale =
    check_scale scale;
    print_string (Pcolor.Comp.Text.to_string ((find_bench bench).build ~scale ()))
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a built-in benchmark in the textual program format.")
    Term.(const action $ bench_arg $ scale_arg)

(* ---- summary ---- *)

let summary_cmd =
  let action bench scale =
    check_scale scale;
    let d = find_bench bench in
    (* The layout only fixes the summary's page granularity: the unscaled
       sgi model's 4 KiB pages. Page size does not depend on the scale,
       and nothing printed depends on the policy or the layout, so the
       unscaled model (which no [--scale] can shrink below 2 colors)
       serves every scale. *)
    let cfg = Pcolor.Memsim.Config.sgi_base ~n_cpus:1 () in
    let p, summary, _ =
      Run.layout
        (Run.default_setup ~cfg ~make_program:(fun () -> d.build ~scale ()) ~policy:Run.Page_coloring)
    in
    Format.printf "%s (%.1f MB at scale 1/%d)@.%a@." p.name
      (float_of_int (Pcolor.Comp.Ir.data_set_bytes p) /. 1048576.0)
      scale Pcolor.Comp.Summary.pp summary
  in
  Cmd.v (Cmd.info "summary" ~doc:"Print the compiler's access-pattern summary (Section 5.1).")
    Term.(const action $ bench_arg $ scale_arg)

(* ---- explain / diff: read artifacts back ---- *)

let read_json path =
  let contents =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  match Pcolor.Obs.Json.parse contents with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "%s: invalid JSON: %s\n" path e;
    exit 2

let schema_of artifact =
  Option.bind (Pcolor.Obs.Json.member "schema_version" artifact) Pcolor.Obs.Json.to_int_opt

(* A run, compare or mix artifact: JSON that carries an integer
   [schema_version], so any other JSON file is refused by name instead
   of rendering as an empty report. *)
let read_artifact path =
  let artifact = read_json path in
  if schema_of artifact = None then
    usage_error "%s: not a pcolor artifact (no integer schema_version)" path;
  artifact

let artifact_pos_arg ~at ~docv ~doc =
  Arg.(required & pos at (some file) None & info [] ~docv ~doc)

let epoch_range_conv =
  let parse s =
    let int_of t =
      match int_of_string_opt (String.trim t) with
      | Some v -> Ok v
      | None -> Error (`Msg (Printf.sprintf "bad epoch %S (expected LO-HI or N)" t))
    in
    match String.index_opt s '-' with
    | Some i ->
      Result.bind (int_of (String.sub s 0 i)) (fun lo ->
          Result.map
            (fun hi -> (lo, hi))
            (int_of (String.sub s (i + 1) (String.length s - i - 1))))
    | None -> Result.map (fun v -> (v, v)) (int_of s)
  in
  Arg.conv (parse, fun fmt (lo, hi) -> Format.fprintf fmt "%d-%d" lo hi)

let explain_cmd =
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Rows in the pair/set tables.")
  in
  let pages_arg =
    Arg.(
      value & opt int 16
      & info [ "pages" ] ~docv:"N" ~doc:"Rows in the per-page decision listing.")
  in
  let at_arg =
    Arg.(
      value
      & opt (some epoch_range_conv) None
      & info [ "at" ] ~docv:"LO-HI"
          ~doc:
            "Explain one epoch range of the artifact's \"timeline\" section (inclusive; a \
             single epoch $(b,N) also works) instead of the whole-run audit view.  Requires an \
             artifact produced with $(b,--timeline).")
  in
  let action path top page_rows at =
    Option.iter
      (fun (lo, hi) -> if hi < lo then usage_error "--at: bad epoch range %d-%d (LO > HI)" lo hi)
      at;
    let artifact = read_artifact path in
    (match schema_of artifact with
    | Some v when v <> Pcolor.Obs.Provenance.schema_version ->
      Printf.eprintf "warning: %s has artifact schema v%d, this binary writes v%d\n%!" path v
        Pcolor.Obs.Provenance.schema_version
    | _ -> ());
    match at with
    | None -> print_string (Pcolor.Stats.Explain.render ~top ~page_rows artifact)
    | Some (lo, hi) -> (
      match Pcolor.Stats.Phases.of_artifact artifact with
      | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 2
      | Ok tl -> print_string (Pcolor.Stats.Phases.render_window tl ~lo ~hi))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render a run artifact's audit sections: top conflicting page pairs, per-array \
          miss-class bars, color-occupancy heatmap, and the CDPC (§5.2) decision log.  Produce \
          artifacts with $(b,pcolor run --metrics-out).  With $(b,--at=LO-HI), zoom into one \
          epoch range of the timeline instead.")
    Term.(
      const action
      $ artifact_pos_arg ~at:0 ~docv:"ARTIFACT" ~doc:"Run artifact (JSON) to explain."
      $ top_arg $ pages_arg $ at_arg)

(* ---- timeline: render the cycle-epoch sampling section ---- *)

let timeline_cmd =
  let job_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "job" ] ~docv:"ASID" ~doc:"Restrict the series to one job's rows (mix artifacts).")
  in
  let window_arg =
    Arg.(
      value & opt int 4
      & info [ "window" ] ~docv:"EPOCHS" ~doc:"Change-point detector window (epochs per side).")
  in
  let threshold_arg =
    Arg.(
      value & opt float 2.0
      & info [ "threshold" ] ~docv:"SCORE"
          ~doc:"Change-point significance threshold (mean shift / pooled deviation).")
  in
  let action path job window threshold =
    if window < 1 then usage_error "--window: need at least one epoch per side (got %d)" window;
    let artifact = read_json path in
    match Pcolor.Stats.Phases.of_artifact artifact with
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2
    | Ok tl ->
      (match job with
      | None -> print_string (Pcolor.Stats.Phases.render tl)
      | Some j ->
        let module P = Pcolor.Stats.Phases in
        let miss = P.miss_series ~job:j tl in
        Printf.printf "job %d l2-miss   %s\n" j (Pcolor.Util.Chart.sparkline miss);
        Printf.printf "job %d conflict  %s\n" j
          (Pcolor.Util.Chart.sparkline (P.conflict_series ~job:j tl));
        List.iter
          (fun (c : P.change) ->
            Printf.printf "  transition @ epoch %d: %.1f -> %.1f (score %.1f)\n" c.epoch
              c.before c.after c.score)
          (P.detect ~window ~threshold miss))
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Render an artifact's \"timeline\" section: per-epoch sparklines of the miss, \
          conflict-pressure and stall series, detected phase transitions, the per-job split \
          and the context-switch log.  Produce artifacts with $(b,--timeline --metrics-out).")
    Term.(
      const action
      $ artifact_pos_arg ~at:0 ~docv:"ARTIFACT" ~doc:"Run or mix artifact (JSON) with a timeline."
      $ job_arg $ window_arg $ threshold_arg)

let diff_cmd =
  let threshold_arg =
    Arg.(
      value & opt float 0.0
      & info [ "threshold" ] ~docv:"REL"
          ~doc:
            "Relative bad-direction move that counts as a regression (e.g. $(b,0.05) = 5%; \
             default 0: any bad move).")
  in
  let warn_only_arg =
    Arg.(
      value & flag
      & info [ "warn-only" ] ~doc:"Report regressions but exit 0 (CI advisory mode).")
  in
  let exact_arg =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Identity mode: fail on $(i,any) difference — numeric moves in either direction, \
             label changes, added/removed sections, every row of the attribution rankings and \
             of the decision log's page listing (provenance still skipped). The \
             engine-equivalence gate.")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"KEY"
          ~doc:
            "Skip object key $(docv) everywhere in both artifacts (repeatable), e.g. \
             $(b,--ignore timeline) to compare a sampled run against an unsampled baseline.")
  in
  let action a_path b_path threshold warn_only exact ignore =
    let a = read_artifact a_path and b = read_artifact b_path in
    (match (schema_of a, schema_of b) with
    | Some va, Some vb when va <> vb ->
      Printf.eprintf "warning: schema v%d vs v%d — added/removed sections diff as structural\n%!"
        va vb
    | _ -> ());
    let d = Pcolor.Stats.Delta.diff ~threshold ~exact ~ignore a b in
    print_string (Pcolor.Stats.Delta.render d);
    (* per-array deltas: the raw hot lists are rankings, so they are
       aggregated by array name before pairing *)
    let dpa =
      Pcolor.Stats.Delta.diff ~threshold ~ignore
        (Pcolor.Stats.Explain.per_array_rollup a)
        (Pcolor.Stats.Explain.per_array_rollup b)
    in
    if Pcolor.Stats.Delta.changed dpa <> [] then begin
      print_string "per-array miss deltas (rolled up from the hottest frames):\n";
      print_string (Pcolor.Stats.Delta.render dpa)
    end;
    let module D = Pcolor.Stats.Delta in
    if exact then begin
      (* the rollup is derived from top_frames, which [d] compares row
         by row: counting it too would count each difference twice *)
      let differences =
        List.length (D.changed d) + List.length d.D.label_changes + List.length d.D.only_in_a
        + List.length d.D.only_in_b
      in
      if differences <> 0 then begin
        Printf.printf "%d difference(s) — artifacts are not identical\n" differences;
        if not warn_only then exit 1
      end
      else print_endline "artifacts are identical (modulo provenance)"
    end
    else begin
      let regs = D.regressions d @ D.regressions dpa in
      if regs <> [] then begin
        Printf.printf "%d regression(s) past %.1f%% threshold (!! rows above)\n"
          (List.length regs) (100.0 *. threshold);
        if not warn_only then exit 1
      end
      else Printf.printf "no regressions (threshold %.1f%%)\n" (100.0 *. threshold)
    end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run artifacts: per-class, per-array and per-color deltas with \
          regression direction inferred per metric.  Exits 1 on regression (or, with \
          $(b,--exact), on any difference) unless $(b,--warn-only).")
    Term.(
      const action
      $ artifact_pos_arg ~at:0 ~docv:"OLD" ~doc:"Baseline artifact (JSON)."
      $ artifact_pos_arg ~at:1 ~docv:"NEW" ~doc:"Candidate artifact (JSON)."
      $ threshold_arg $ warn_only_arg $ exact_arg $ ignore_arg)

(* ---- perf: the host-side performance observatory ---- *)

let ledger_path_arg =
  Arg.(
    value
    & opt string "PERF_LEDGER.jsonl"
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Perf ledger path. The benchmark declaration it is read against is the \
           $(b,BENCHMARK.json) in the same directory.")

(* The benchmark declaration beside the ledger: BENCHMARK.json and
   PERF_LEDGER.jsonl both live at the repository root. *)
let load_spec cmd ledger =
  let path = Filename.concat (Filename.dirname ledger) "BENCHMARK.json" in
  match Pcolor.Stats.Perf.spec_of_json (read_json path) with
  | Ok spec -> spec
  | Error e -> usage_error "perf %s: %s: %s" cmd path e

let perf_history_cmd =
  let section_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "section" ] ~docv:"S" ~doc:"Show only section $(docv) (e.g. sweep/refs_per_s).")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Also render sections outside BENCHMARK.json's workloads × metrics (records of \
             retired timers); by default they are only summarized.")
  in
  let action ledger section all =
    let records, skipped = Pcolor.Obs.Ledger.load ~path:ledger in
    (* an explicit --section request wins over the declared-section
       filter: asking for a stale section by name should show it *)
    let known =
      if all || section <> None then None
      else Some (Pcolor.Stats.Perf.section_names (load_spec "history" ledger))
    in
    print_string (Pcolor.Stats.Perf.render_history ?section ?known records ~skipped)
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Render per-section performance trends (sparkline over ledger records, latest median \
          ± MAD) from the append-only perf ledger.")
    Term.(const action $ ledger_path_arg $ section_arg $ all_arg)

let perf_ingest_cmd =
  let workload_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"W" ~doc:"The perfbench workload the result line measured.")
  in
  let action ledger workload =
    let spec = load_spec "ingest" ledger in
    (* the result is perfbench's last stdout line *)
    let line =
      In_channel.input_all stdin |> String.split_on_char '\n' |> List.map String.trim
      |> List.filter (( <> ) "") |> List.rev
    in
    match line with
    | [] -> usage_error "perf ingest: empty input: pipe a perfbench result line on stdin"
    | line :: _ -> (
      match Pcolor.Obs.Json.parse line with
      | Error e -> usage_error "perf ingest: stdin is not a JSON result line: %s" e
      | Ok v -> (
        let provenance = Pcolor.Obs.Provenance.collect () in
        match Pcolor.Stats.Perf.ingest spec ~workload ~provenance v with
        | Error e -> usage_error "perf ingest: %s" e
        | Ok records ->
          Pcolor.Obs.Ledger.append ~path:ledger records;
          Printf.printf "appended %d record(s) for %s at %s to %s\n" (List.length records)
            workload
            (Option.value ~default:"unknown" provenance.Pcolor.Obs.Provenance.git)
            ledger))
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Append one perfbench result line (read on stdin) to the perf ledger: one record per \
          metric, section WORKLOAD/METRIC, stamped with the current git revision. Usage: \
          $(b,python3 perfbench/run.py --workload sweep ... | pcolor perf ingest --workload \
          sweep).")
    Term.(const action $ ledger_path_arg $ workload_arg)

let perf_check_cmd =
  let stamp_arg ~at ~docv ~doc = Arg.(required & pos at (some string) None & info [] ~docv ~doc) in
  let action ledger base fresh =
    let spec = load_spec "check" ledger in
    let records, _ = Pcolor.Obs.Ledger.load ~path:ledger in
    match Pcolor.Stats.Perf.check spec records ~base ~fresh with
    | Error e -> usage_error "perf check: %s" e
    | Ok verdicts -> (
      print_string (Pcolor.Stats.Perf.render_check ~base ~fresh verdicts);
      match Pcolor.Stats.Perf.failures verdicts with
      | [] -> print_endline "perf check: OK"
      | failed ->
        Printf.eprintf "perf check: %s is worse than %s beyond the BENCHMARK.json bound on %s\n"
          fresh base (String.concat ", " failed);
        exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Compare the ledger records of two git stamps: for each WORKLOAD/METRIC section \
          recorded at both, the median of each stamp's samples. Exits 1 when FRESH is worse \
          than BASE by more than the metric's end_to_end bound in BENCHMARK.json (direction \
          from its $(b,better)); per-layer metrics are printed but never fail. Exits 2 when a \
          stamp has no record or the two share no section.")
    Term.(
      const action $ ledger_path_arg
      $ stamp_arg ~at:0 ~docv:"BASE" ~doc:"Baseline git stamp (as recorded in the ledger)."
      $ stamp_arg ~at:1 ~docv:"FRESH" ~doc:"Candidate git stamp.")

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:
         "Host-side performance observatory: perfbench results into the ledger, ledger trends \
          and the bound-based regression check.")
    [ perf_ingest_cmd; perf_history_cmd; perf_check_cmd ]

(* ---- version ---- *)

let version_string () =
  Printf.sprintf "pcolor artifact-schema v%d%s" Pcolor.Obs.Provenance.schema_version
    (match Pcolor.Obs.Provenance.git_describe () with
    | Some g -> " (git " ^ g ^ ")"
    | None -> "")

let version_cmd =
  let action () = print_endline (version_string ()) in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the artifact schema version and source revision.")
    Term.(const action $ const ())

let () =
  Pcolor.Obs.Log.init ();
  let doc = "compiler-directed page coloring for multiprocessors (ASPLOS 1996) — reproduction" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "pcolor" ~doc ~version:(version_string ()))
          [
            list_cmd; run_cmd; compare_cmd; mix_cmd; probe_cmd; record_cmd; replay_cmd; pattern_cmd;
            hints_cmd; summary_cmd; run_file_cmd; dump_cmd; explain_cmd; timeline_cmd; diff_cmd;
            perf_cmd; version_cmd;
          ]))
