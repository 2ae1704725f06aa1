(** Top-level experiment runner: program × machine × policy → report,
    performing the full paper pipeline — summary extraction, data
    layout (§5.4), CDPC hint generation (§5.2), OS policy construction,
    and simulated execution of the representative window.  The
    reference stream comes from the runs engine unless the setup picks
    the interpreter oracle; {!default_setup} defines that default once,
    and multiprogrammed jobs inherit it. *)

module Ir = Pcolor_comp.Ir

(** Page-mapping strategy.  [Cdpc ~via_touch:true] realizes hints by
    touching pages in coloring order on a bin-hopping kernel (the
    Digital UNIX path); [via_touch:false] is the IRIX madvise-style
    kernel extension.  [Bin_hopping_unaligned] additionally disables
    §5.4 alignment/padding.  [Dynamic_recoloring] is the §2.1-style
    reactive extension. *)
type policy_choice =
  | Page_coloring
  | Bin_hopping
  | Bin_hopping_unaligned
  | Random_colors
  | Cdpc of { fallback : [ `Page_coloring | `Bin_hopping ]; via_touch : bool }
  | Cdpc_hash of { fallback : [ `Page_coloring | `Bin_hopping ] }
      (** hash-aware CDPC (DESIGN §16): the same §5.2 hints realized
          through a frame pool classified by the inverted slice hash,
          so hints target true (slice, set-group) bins *)
  | Dynamic_recoloring of { base : [ `Page_coloring | `Bin_hopping ] }

(** [cdpc] is the paper's IRIX realization of CDPC: hints through a
    madvise-style kernel extension, page coloring for unhinted pages
    (Figures 6-8). *)
val cdpc : policy_choice

(** [cdpc_touch] is the paper's Digital UNIX realization: hinted pages
    touched in coloring order on the bin-hopping kernel (Figure 9,
    Table 2). *)
val cdpc_touch : policy_choice

(** [policy_name c] is the report label. *)
val policy_name : policy_choice -> string

(** [policy_of_name s] inverts {!policy_name} and also accepts the short
    CLI spellings ([pc], [bh], [bh-unaligned], [cdpc-bh], [dynamic],
    [dynamic-bh], ...), so a label stored in a tape header parses back
    to the policy that wrote it.  [Error] names the unknown string. *)
val policy_of_name : string -> (policy_choice, string) result

type setup = {
  cfg : Pcolor_memsim.Config.t;
  make_program : unit -> Ir.program;
      (** must return a fresh program: layout mutates array bases *)
  policy : policy_choice;
  prefetch : bool;
  seed : int;
  cap : int;  (** representative-window phase occurrence cap *)
  mem_frames : int option;  (** physical memory; [None] = ample *)
  collect_trace : bool;
  check_bounds : bool;
  cdpc_ablation : Pcolor_cdpc.Colorer.ablation;
  obs : Pcolor_obs.Ctx.t;
      (** observability context; [Ctx.disabled] by default — with it off
          runs are byte-identical to an uninstrumented build *)
  engine : Engine.kind;
      (** reference-stream generation strategy ([Runs] by default);
          [Interp] is the byte-identity oracle *)
}

(** [default_setup ~cfg ~make_program ~policy] fills conservative
    defaults (no prefetch, seed 42, cap 2, ample memory, full
    algorithm, observability off, runs engine). *)
val default_setup :
  cfg:Pcolor_memsim.Config.t ->
  make_program:(unit -> Ir.program) ->
  policy:policy_choice ->
  setup

type outcome = {
  cfg : Pcolor_memsim.Config.t;  (** the machine the run used *)
  report : Pcolor_stats.Report.t;
  totals : Pcolor_stats.Totals.t;
  program : Ir.program;
  summary : Pcolor_comp.Summary.t;
  hints_info : Pcolor_cdpc.Colorer.info option;
  trace : (int * int) list;  (** (vpage, cpu), if collected *)
  kernel : Pcolor_vm.Kernel.t;
  machine : Pcolor_memsim.Machine.t;
      (** post-run machine: cumulative (unweighted) measured-pass stats *)
  recolorings : int;  (** dynamic-recoloring extension: pages moved *)
  hash_inversion : string option;
      (** hash-aware CDPC: name of the slice-hash inversion the hints
          were realized through (suffixes decision-log [chosen_by]) *)
  metrics : Pcolor_obs.Metrics.snapshot option;
      (** end-of-run snapshot of the setup's registry, if one was
          attached *)
  attrib : Pcolor_obs.Attrib.t option;
      (** the run's conflict-attribution engine, if one was attached *)
}

(** [layout setup] is the layout step, the one place a run's program,
    summary and §5.4 layout are derived: a fresh checked program, its
    compiler summary, and the layout ([Natural] for
    [Bin_hopping_unaligned], [Aligned] otherwise), with the first byte
    past the laid-out data segment.  It mutates only that fresh
    program's array bases. *)
val layout : setup -> Ir.program * Pcolor_comp.Summary.t * int

(** The front half of a run: fresh checked program, compiler summary,
    §5.4 layout, CDPC hints and mapping policy — everything that exists
    before a kernel/machine does. *)
type prepared = {
  program : Ir.program;
  summary : Pcolor_comp.Summary.t;
  hints_info : (Pcolor_vm.Hints.t * Pcolor_cdpc.Colorer.info) option;
  policy : Pcolor_vm.Policy.t;
  layout_end : int;  (** first byte past the laid-out (relocated) data segment *)
}

(** [prepare ?relocate setup] runs the compile-time pipeline: {!layout},
    then hints and policy.  [relocate] (default 0, a no-op) shifts
    every array base after layout — multiprogramming's address-space
    tagging: a shift that is a multiple of [n_colors × page_size] keeps
    every page's color while making jobs' virtual pages disjoint. *)
val prepare : ?relocate:int -> setup -> prepared

(** A run's simulated components, wired and not yet started. *)
type built = {
  setup : setup;
  prepared : prepared;
  kernel : Pcolor_vm.Kernel.t;
  machine : Pcolor_memsim.Machine.t;
  engine : Engine.t;
  recolorer : Recolor.t option;  (** the dynamic-recoloring daemon, if the policy has one *)
  after_phase : unit -> unit;
      (** the daemon's round (traced as a ["recoloring"] instant when it
          moves pages), run between phases; a no-op without one *)
}

(** [wire ?cpus ?recorder setup prepared ~kernel ~machine] is the wiring
    step over a kernel and machine that already exist — a lone run's
    own, or a mix job's kernel on the shared pool and the shared
    machine: the engine restricted to [cpus] (default every CPU) with
    the software-prefetch plan when [setup.prefetch] is set, and for
    [Dynamic_recoloring] the daemon, triggered on the range's master
    CPU. *)
val wire :
  ?cpus:int * int ->
  ?recorder:Engine.recorder ->
  setup ->
  prepared ->
  kernel:Pcolor_vm.Kernel.t ->
  machine:Pcolor_memsim.Machine.t ->
  built

(** [touch b] is the cdpc-touch startup: the hinted pages faulted in
    the colorer's final page order ({!Pcolor_cdpc.Colorer.order}, §5.3)
    before {!Engine.startup}, so bin hopping's cyclic counter grants
    each page its hint color; a no-op under every other policy. *)
val touch : built -> unit

(** [build ?recorder setup] is a lone run's build step: {!prepare},
    then the kernel (for [Cdpc_hash], over a frame pool classified by
    the inverted slice hash) and the machine, {!wire}d. *)
val build : ?recorder:Engine.recorder -> setup -> built

(** [close ~obs ~publish machine] is the close step every run and mix
    ends through: the final timeline flush and its trace counters, the
    machine's metrics then [publish]'s into the registry, the snapshot
    (if [obs] has a registry), and the observability flush. *)
val close :
  obs:Pcolor_obs.Ctx.t ->
  publish:(Pcolor_obs.Metrics.t -> unit) ->
  Pcolor_memsim.Machine.t ->
  Pcolor_obs.Metrics.snapshot option

(** [finish b totals] is a run's finish step: {!close} with the
    kernel's and the recoloring daemon's counters, then the report over
    [totals]. *)
val finish : built -> Pcolor_stats.Totals.t -> outcome

(** [run ?recorder setup] executes one experiment end to end.
    [recorder] (requires the runs engine) tees every simulation event
    to a binary-trace writer ({!Btrace}).  Pool exhaustion
    ({!Pcolor_vm.Kernel.Out_of_frames}) is logged on the [PCOLOR_LOG]
    channel (faulting CPU/page, pool occupancy) before propagating. *)
val run : ?recorder:Engine.recorder -> setup -> outcome

(** [artifact_json ?provenance outcome] is the machine-readable run
    artifact ([schema_version], provenance, report, metrics snapshot,
    attribution, coloring decision log — sections present when
    collected) ready to be written as a JSON file. *)
val artifact_json : ?provenance:Pcolor_obs.Provenance.t -> outcome -> Pcolor_obs.Json.t
