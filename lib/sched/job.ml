(** One multiprogrammed job: an ASID-tagged virtual address space with
    its own mapping policy, hints and page table, competing with the
    other jobs for one shared frame pool on one shared machine.

    ASID tagging is done by address-space relocation rather than by
    widening every table key: job [asid]'s arrays are relocated by
    [asid × va_span] after layout (see {!Pcolor_runtime.Run.prepare}),
    where [va_span] is a power of two that is a multiple of
    [n_colors × page_size].  The jobs' virtual pages are then disjoint,
    so the existing packed-int [Itab] tables behind {!Pcolor_memsim.Tlb}
    and {!Pcolor_vm.Page_table} — and the virtually-indexed L1 — are
    naturally ASID-tagged, while [vpage mod n_colors] is unchanged and
    every per-job policy behaves exactly as it would alone.

    A job is assembled from {!Pcolor_runtime.Run}'s own stages, not a
    copy of them: {!Run.prepare} (relocated), a kernel on the shared
    pool, and {!Run.wire} over the shared machine — the same engine,
    prefetch plan, recoloring hook and cdpc-touch order a lone run
    gets.  With ASID 0's relocation of zero, a single-job mix is
    therefore byte-identical to a plain run by construction. *)

module M = Pcolor_memsim.Machine
module Mclass = Pcolor_memsim.Mclass
module Run = Pcolor_runtime.Run
module Engine = Pcolor_runtime.Engine
module Window = Pcolor_runtime.Window
module Kernel = Pcolor_vm.Kernel

(** What to run: a workload, its mapping policy, and the per-job knobs
    of {!Pcolor_runtime.Run.setup} that make sense per job. *)
type spec = {
  name : string;
  make_program : unit -> Pcolor_comp.Ir.program;
      (** must return a fresh program: layout mutates array bases *)
  policy : Run.policy_choice;
  prefetch : bool;
  seed : int;
  cdpc_ablation : Pcolor_cdpc.Colorer.ablation;
  engine_kind : Engine.kind option;  (** [None]: {!Run.default_setup}'s engine *)
}

(** [spec ~name make_program] fills conservative defaults (page
    coloring, no prefetch, seed 42, full CDPC algorithm, and the
    engine a single run defaults to). *)
let spec ?(policy = Run.Page_coloring) ?(prefetch = false) ?(seed = 42)
    ?(cdpc_ablation = Pcolor_cdpc.Colorer.full_algorithm) ?engine_kind ~name make_program =
  { name; make_program; policy; prefetch; seed; cdpc_ablation; engine_kind }

(** [setup_of ~cfg spec] is the equivalent single-run setup — the
    shared vocabulary between [pcolor run] and a mix job. *)
let setup_of ~cfg (s : spec) : Run.setup =
  let d = Run.default_setup ~cfg ~make_program:s.make_program ~policy:s.policy in
  {
    d with
    prefetch = s.prefetch;
    seed = s.seed;
    cdpc_ablation = s.cdpc_ablation;
    engine = Option.value s.engine_kind ~default:d.engine;
  }

type t = {
  spec : spec;
  asid : int;
  run : Run.built; (* Run's own wiring over the shared machine and pool *)
  kernel : Kernel.t; (* [run]'s kernel: this job's address space *)
  first_cpu : int;
  width : int; (* CPUs this job is scheduled onto *)
  totals : Pcolor_stats.Totals.t; (* measured-pass weighted accumulator *)
  mutable warmup : Window.step list; (* warm-up occurrences still to run *)
  mutable measured : (Window.step * int) list; (* step × occurrences left *)
  l2_measured : Mclass.counts;
      (* measured-pass external-miss deltas by class.  Scheduler slices
         are temporally exclusive in simulation order, so the machine-
         wide delta around one occurrence belongs entirely to this job —
         the reconciliation invariant the sched tests pin: summed over
         jobs these equal the machine's own post-reset counters. *)
  mutable dispatches : int;
}

(* the external-miss columns, in Mclass.index order *)
let miss_columns =
  Array.of_list (List.map (fun c -> M.column ("l2_miss." ^ Mclass.to_string c)) Mclass.all)

(** [create ~cfg ~machine ~pool ~obs ~asid ~relocate ~cpus ~cap spec]
    builds the job through {!Run}'s own stages: the prepared program
    relocated by [relocate], a kernel on the shared [pool], and
    {!Run.wire} over the shared [machine] restricted to [cpus].
    Nothing runs yet. *)
let create ~cfg ~machine ~pool ~obs ~asid ~relocate ~cpus ~cap (s : spec) =
  let setup = { (setup_of ~cfg s) with obs } in
  let p = Run.prepare ~relocate setup in
  let kernel = Kernel.create ~cfg ~policy:p.Run.policy ~pool () in
  let run = Run.wire ~cpus setup p ~kernel ~machine in
  let first_cpu, width = cpus in
  {
    spec = s;
    asid;
    run;
    kernel;
    first_cpu;
    width;
    totals = Pcolor_stats.Totals.create ~n_cpus:(M.n_cpus machine);
    warmup = Engine.warmup_plan run.engine;
    measured =
      List.map (fun (st : Window.step) -> (st, st.simulate)) (Engine.measured_plan run.engine ~cap);
    l2_measured = Mclass.make_counts ();
    dispatches = 0;
  }

(** [program t] is the job's relocated program. *)
let program t = t.run.prepared.program

(** [startup t] faults the cdpc-touch pages (if any) and runs the
    master-only initialization — the same order as {!Run.run}. *)
let startup t =
  Run.touch t.run;
  Engine.startup t.run.engine

(** [clock t machine] is the job's wall clock: the max cycle count over
    its own CPUs (they only advance while the job runs). *)
let clock t machine =
  let m = ref 0 in
  for cpu = t.first_cpu to t.first_cpu + t.width - 1 do
    m := max !m (M.cpu_time machine ~cpu)
  done;
  !m

let warmup_done t = t.warmup = []

let measured_done t = t.measured = []

(** [run_one_warmup t] runs the next warm-up occurrence. *)
let run_one_warmup t =
  match t.warmup with
  | [] -> ()
  | s :: rest ->
    Engine.run_warmup_step t.run.engine ~after_phase:t.run.after_phase s;
    t.warmup <- rest

(** [begin_measured t] resets the engine's measurement state after the
    global machine reset (the caller resets the machine once). *)
let begin_measured t =
  Engine.begin_measured t.run.engine;
  Array.fill t.l2_measured 0 (Array.length t.l2_measured) 0

(** [run_one_measured t machine] runs the next measured occurrence,
    accumulating weighted totals into the job's accumulator and raw
    external-miss deltas into [l2_measured].  Occurrence granularity,
    not the access hot path — the two 5-int snapshots are cheap. *)
let run_one_measured t machine =
  match t.measured with
  | [] -> ()
  | (s, left) :: rest ->
    let before = Array.map (M.total machine) miss_columns in
    Engine.run_measured_occurrence t.run.engine ~after_phase:t.run.after_phase ~into:t.totals s;
    Array.iteri
      (fun i col -> t.l2_measured.(i) <- t.l2_measured.(i) + M.total machine col - before.(i))
      miss_columns;
    t.measured <- (if left <= 1 then rest else (s, left - 1) :: rest)

(** [report ~cfg t] is the per-job report, built exactly as {!Run.run}
    builds its single-run report (benchmark name from the program,
    per-kernel fault and hint counters — which equal the pool's own
    counters when the job is alone). *)
let report ~cfg t =
  Pcolor_stats.Report.of_totals ~benchmark:(program t).Pcolor_comp.Ir.name
    ~machine:cfg.Pcolor_memsim.Config.name ~n_cpus:t.width
    ~policy:(Run.policy_name t.spec.policy) ~prefetch:t.spec.prefetch
    ~page_faults:(Kernel.faults t.kernel) ~hints_honored:(Kernel.honored t.kernel)
    ~hints_fallback:(Kernel.hint_fallbacks t.kernel) t.totals
