(** Compiler-directed page coloring for multiprocessors — public façade.

    This library reproduces Bugnion, Anderson, Mowry, Rosenblum & Lam,
    {e Compiler-Directed Page Coloring for Multiprocessors}
    (ASPLOS 1996): the CDPC hint-generation algorithm, the SUIF-style
    compiler analyses it consumes, the OS virtual-memory policies it
    competes against, and the SimOS-style multiprocessor memory-system
    simulator the paper evaluates on.

    Sub-libraries (also usable directly):

    - {!Util} — deterministic RNG, bit utilities, int tables, the
      parallel map, text tables and charts
    - {!Memsim} — caches, TLB, bus, coherence, the machine model
    - {!Vm} — frame pool, page tables, mapping policies, the kernel
    - {!Comp} — loop-nest IR, partitioning, footprints, summaries,
      prefetching
    - {!Cdpc} — the paper's five-step hint generator and data layout
    - {!Runtime} — execution engine, representative windows, runner
    - {!Sched} — multiprogramming: jobs, scheduler, reclaim, mix runner
    - {!Workloads} — ten SPEC95fp-personality kernels
    - {!Stats} — overheads, weighted totals, reports, SPEC ratings
    - {!Obs} — metrics registry, Chrome-trace emitter, run artifacts

    For a three-line start, see {!Quick}. *)

module Util = struct
  module Rng = Pcolor_util.Rng
  module Bits = Pcolor_util.Bits
  module Bitset = Pcolor_util.Bitset
  module Itab = Pcolor_util.Itab
  module Densemap = Pcolor_util.Densemap
  module Pool = Pcolor_util.Pool
  module Table = Pcolor_util.Table
  module Chart = Pcolor_util.Chart
end

module Memsim = struct
  module Config = Pcolor_memsim.Config
  module Mclass = Pcolor_memsim.Mclass
  module Cache = Pcolor_memsim.Cache
  module Ahash = Pcolor_memsim.Ahash
  module Slice = Pcolor_memsim.Slice
  module Shadow = Pcolor_memsim.Shadow
  module Tlb = Pcolor_memsim.Tlb
  module Bus = Pcolor_memsim.Bus
  module Directory = Pcolor_memsim.Directory
  module Machine = Pcolor_memsim.Machine
end

module Vm = struct
  module Frame_pool = Pcolor_vm.Frame_pool
  module Page_table = Pcolor_vm.Page_table
  module Hints = Pcolor_vm.Hints
  module Policy = Pcolor_vm.Policy
  module Kernel = Pcolor_vm.Kernel
end

module Comp = struct
  module Ir = Pcolor_comp.Ir
  module Partition = Pcolor_comp.Partition
  module Schedule = Pcolor_comp.Schedule
  module Footprint = Pcolor_comp.Footprint
  module Summary = Pcolor_comp.Summary
  module Prefetcher = Pcolor_comp.Prefetcher
  module Walker = Pcolor_comp.Walker
  module Sexp = Pcolor_comp.Sexp
  module Text = Pcolor_comp.Text
end

module Cdpc = struct
  module Segment = Pcolor_cdpc.Segment
  module Order = Pcolor_cdpc.Order
  module Cyclic = Pcolor_cdpc.Cyclic
  module Colorer = Pcolor_cdpc.Colorer
  module Align = Pcolor_cdpc.Align
  module Hcolorer = Pcolor_cdpc.Hcolorer
end

module Runtime = struct
  module Window = Pcolor_runtime.Window
  module Engine = Pcolor_runtime.Engine
  module Recolor = Pcolor_runtime.Recolor
  module Run = Pcolor_runtime.Run
  module Btrace = Pcolor_runtime.Btrace
  module Audit = Pcolor_runtime.Audit
  module Cell = Pcolor_runtime.Cell
end

(** Multiprogramming: concurrent ASID-tagged address spaces competing
    for one shared frame pool under a gang or space-sharing scheduler,
    with second-chance reclaim under memory pressure. *)
module Sched = struct
  module Job = Pcolor_sched.Job
  module Scheduler = Pcolor_sched.Sched
  module Reclaim = Pcolor_sched.Reclaim
  module Mix = Pcolor_sched.Mix
end

module Workloads = struct
  module Spec = Pcolor_workloads.Spec
  module Gen = Pcolor_workloads.Gen
  module Tomcatv = Pcolor_workloads.Tomcatv
  module Swim = Pcolor_workloads.Swim
  module Su2cor = Pcolor_workloads.Su2cor
  module Hydro2d = Pcolor_workloads.Hydro2d
  module Mgrid = Pcolor_workloads.Mgrid
  module Applu = Pcolor_workloads.Applu
  module Turb3d = Pcolor_workloads.Turb3d
  module Apsi = Pcolor_workloads.Apsi
  module Fpppp = Pcolor_workloads.Fpppp
  module Wave5 = Pcolor_workloads.Wave5
  module Probe = Pcolor_workloads.Probe
end

module Stats = struct
  module Overheads = Pcolor_stats.Overheads
  module Totals = Pcolor_stats.Totals
  module Report = Pcolor_stats.Report
  module Spec_ratio = Pcolor_stats.Spec_ratio
  module Delta = Pcolor_stats.Delta
  module Explain = Pcolor_stats.Explain
  module Phases = Pcolor_stats.Phases
  module Perf = Pcolor_stats.Perf
end

module Obs = struct
  module Json = Pcolor_obs.Json
  module Metrics = Pcolor_obs.Metrics
  module Trace = Pcolor_obs.Trace
  module Provenance = Pcolor_obs.Provenance
  module Ctx = Pcolor_obs.Ctx
  module Attrib = Pcolor_obs.Attrib
  module Log = Pcolor_obs.Log
  module Sampler = Pcolor_obs.Sampler
  module Stat = Pcolor_obs.Stat
  module Ledger = Pcolor_obs.Ledger
  module Prof = Pcolor_obs.Prof
end

(** One-call experiment helpers. *)
module Quick = struct
  (** [run ?n_cpus ?scale ?policy ?prefetch benchmark] simulates a
      SPEC95fp kernel on the paper's base machine (1 MB direct-mapped
      external cache, scaled together with the data set) and returns the
      report.  [policy] defaults to CDPC; [scale] defaults to 16 (fast;
      use 4 or 1 for paper-geometry runs).  Raises [Invalid_argument]
      for a CPU count, scale or benchmark the cell refuses. *)
  let run ?(n_cpus = 8) ?(scale = 16) ?(policy = Runtime.Run.cdpc) ?(prefetch = false) benchmark =
    match Runtime.Cell.machine ~model:"sgi" ~n_cpus ~scale () with
    | Error (_, msg) -> invalid_arg msg
    | Ok machine ->
      let cell = Runtime.Cell.make ~prefetch ~machine ~bench:benchmark ~policy () in
      (Runtime.Run.run (Runtime.Cell.setup cell)).report

  (** [compare ?n_cpus ?scale benchmark] runs page coloring, bin hopping
      and CDPC on one benchmark and returns the three reports. *)
  let compare ?(n_cpus = 8) ?(scale = 16) benchmark =
    List.map
      (fun policy -> run ~n_cpus ~scale ~policy benchmark)
      [ Runtime.Run.Page_coloring; Runtime.Run.Bin_hopping; Runtime.Run.cdpc ]
end
