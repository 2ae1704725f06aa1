(** The execution engine: runs a scheduled IR program on the simulated
    machine — reference-stream generation per CPU, the SUIF master/slave
    model with barriers and overhead classification, epoch-based
    communication, and the per-phase bus-contention fixed point. *)

type t

(** Reference-stream generation strategy: [Runs] (default) compiles
    each (nest, cpu-range) into a precompiled affine walker
    ({!Pcolor_comp.Walker}) emitting run-length-coalesced records for
    {!Pcolor_memsim.Machine.consume_runs} (run heads take the full
    access path, tails retire as O(1) bulk L1-hit arithmetic when
    provably pure hits); [Interp] is the recursive per-depth
    interpreter, retained as the byte-identity oracle.  Both produce
    byte-identical artifacts. *)
type kind = Interp | Runs

(** Trace-recording hooks: the engine invokes them at every simulation
    event so a binary trace ({!Btrace}) can be written as a tee on the
    runs engine; the trace decoder drives the same hooks from a tape. *)
type recorder = {
  rec_run_section :
    cpu:int -> nrefs:int -> instr_per_iter:int -> extra_onchip_stall:int -> strides:int array -> unit;
  rec_runs : Pcolor_comp.Walker.batch -> unit;
  rec_tick : cpu:int -> int -> unit;
  rec_onchip : cpu:int -> int -> unit;
  rec_barrier : Pcolor_comp.Ir.loop_kind -> unit;
  rec_reset : unit -> unit;
  rec_touch : cpu:int -> vpage:int -> unit;
  rec_phase_begin : unit -> unit;
  rec_phase_end : unit -> unit;
}

(** [create ~machine ~kernel ~program ~plans ()] wires an engine.
    [check_bounds] (tests; now a one-shot pre-pass per (nest,
    cpu-range), not a per-reference branch) validates every reference
    range against its array extent; [collect_trace] records every
    (vpage, cpu) touch in the measured window; [obs] (default disabled)
    attaches structured tracing (per-CPU phase spans, prefetch-drop and
    bus-knee instants) and runtime metrics (phase-duration histogram,
    occurrence and window-weight counters); [cpus] (default: the whole
    machine) restricts the engine to the contiguous physical CPU range
    [(first, count)] — the space-sharing hook.  [engine] selects the
    generation strategy (default [Runs]); [recorder] (requires [Runs])
    tees every simulation event to a binary-trace writer. *)
val create :
  ?check_bounds:bool ->
  ?collect_trace:bool ->
  ?obs:Pcolor_obs.Ctx.t ->
  ?cpus:int * int ->
  ?engine:kind ->
  ?recorder:recorder ->
  machine:Pcolor_memsim.Machine.t ->
  kernel:Pcolor_vm.Kernel.t ->
  program:Pcolor_comp.Ir.program ->
  plans:Pcolor_comp.Prefetcher.t ->
  unit ->
  t

(** [touch_pages_in_order t vpages] makes the master fault pages in
    order — the §5.3 Digital-UNIX user-level CDPC implementation. *)
val touch_pages_in_order : t -> int array -> unit

(** {2 Stepping API}

    [run] composes these; the multiprogramming scheduler interleaves
    them across several engines sharing one machine.  A single-job gang
    mix replays exactly the operation sequence of [run]. *)

(** [startup t] executes the master-only initialization section. *)
val startup : t -> unit

(** [warmup_plan t] / [measured_plan t ~cap] are the window steps of
    the discarded warm-up pass and the measured window. *)
val warmup_plan : t -> Window.step list

val measured_plan : t -> cap:int -> Window.step list

(** [run_warmup_step t step] runs one warm-up occurrence. *)
val run_warmup_step : t -> ?after_phase:(unit -> unit) -> Window.step -> unit

(** [begin_measured t] resets engine-local measurement state (overhead
    accumulators, touch trace); the caller resets the machine itself
    ({!Pcolor_memsim.Machine.reset_stats}, once per machine). *)
val begin_measured : t -> unit

(** [run_measured_occurrence t ~into step] runs one occurrence of
    [step]'s phase, accumulating weighted deltas into [into]. *)
val run_measured_occurrence :
  t -> ?after_phase:(unit -> unit) -> into:Pcolor_stats.Totals.t -> Window.step -> unit

(** [run t ?cap ?after_phase ()] executes startup, the discarded
    warm-up pass, then the measured window, returning weighted totals.
    [after_phase] runs after every phase occurrence (the recoloring
    hook). *)
val run : t -> ?cap:int -> ?after_phase:(unit -> unit) -> unit -> Pcolor_stats.Totals.t

(** {2 The phase bracket}

    One phase occurrence is {!open_occurrence}, the phase's nests (each
    closed by {!barrier}), then {!close_occurrence} — the two warm-up
    and measured steps above are exactly that.  Trace replay
    ({!Btrace.replay}) owns an engine it never asks to walk a nest
    and drives the same halves from the tape's phase markers, so the
    phase spans, the [prefetch-drops] and [bus-knee] instants, the
    [runtime.*] metrics, the contention fixed point and the window
    weighting exist once. *)

type occurrence

(** [open_occurrence t ?into step] snapshots the machine as one
    occurrence of [step]'s phase begins.  With [into] the occurrence is
    measured; without it, it belongs to the warm-up pass. *)
val open_occurrence : t -> ?into:Pcolor_stats.Totals.t -> Window.step -> occurrence

(** [close_occurrence t ?after_phase o] ends the occurrence: emits its
    per-CPU spans and prefetch-drop instant, settles bus contention
    (and the bus-knee instant), runs [after_phase], and for a measured
    occurrence records the runtime metrics and folds the deltas,
    stretched and weighted by the step's weight, into its [into]. *)
val close_occurrence : t -> ?after_phase:(unit -> unit) -> occurrence -> unit

(** [barrier t kind] ends a nest region: classifies each CPU's waiting
    time by [kind] into the overhead accumulators, charges the software
    barrier cost and synchronizes the engine's CPU clocks. *)
val barrier : t -> Pcolor_comp.Ir.loop_kind -> unit

(** {2 Results and wiring} *)

(** [trace_points t] is the recorded (vpage, cpu) set (empty unless
    [collect_trace]). *)
val trace_points : t -> (int * int) list

(** [last_contention t] is the last phase's stretch factor (> 1 means
    the bus saturated). *)
val last_contention : t -> float

(** [overheads t] exposes the overhead accumulators. *)
val overheads : t -> Pcolor_stats.Overheads.t

(** [cpus t] is the physical CPU range [(first, count)] the engine
    schedules onto. *)
val cpus : t -> int * int
