(** The simulated multiprocessor memory system: per-CPU virtually
    indexed on-chip caches, TLBs, physically indexed external caches
    with fully-associative shadows, prefetch units, and a shared
    coherence directory and bus.

    Address translation is delegated through a [translate] callback
    (the VM kernel supplies frames and fault costs), keeping the memory
    system decoupled from the OS model.  Memory stalls are charged at
    uncontended latencies and recorded by cause; the engine applies the
    bus-contention stretch per region. *)

(** Per-CPU statistics (mutable; reset by {!reset_stats}). *)
type cpu_stats = {
  mutable instructions : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  l2_miss_counts : Mclass.counts;
  mutable stall_onchip : int;  (** on-chip miss serviced by L2, cycles *)
  stall_by_class : int array;  (** memory stall cycles per miss class *)
  mutable stall_pf_late : int;  (** demand arrived before its prefetch completed *)
  mutable stall_pf_full : int;  (** a 5th outstanding prefetch stalled the CPU *)
  mutable kernel_cycles : int;
  mutable tlb_misses : int;
  mutable page_fault_cycles : int;
  mutable pf_issued : int;
  mutable pf_dropped_tlb : int;  (** prefetch to an unmapped page (§6.2) *)
  mutable pf_useless : int;  (** target already cached or in flight *)
  mutable pf_useful : int;  (** demand hit a completed prefetch *)
}

(** [total_mem_stall s] sums every memory-system stall cycle. *)
val total_mem_stall : cpu_stats -> int

(** [mcpi s] is memory cycles per instruction. *)
val mcpi : cpu_stats -> float

type t

(** [create ?obs cfg] builds an empty machine.  [obs] (default
    disabled) attaches observability: page faults emit trace instants;
    with the sampling knob on, per-miss stalls feed a histogram. *)
val create : ?obs:Pcolor_obs.Ctx.t -> Config.t -> t

(** [config t] is the machine's configuration. *)
val config : t -> Config.t

(** [bus t] exposes the shared bus account. *)
val bus : t -> Bus.t

(** [n_cpus t] is the processor count. *)
val n_cpus : t -> int

(** [cpu_time t ~cpu] is the CPU's local cycle counter. *)
val cpu_time : t -> cpu:int -> int

(** [set_cpu_time t ~cpu v] forces the counter (barrier sync). *)
val set_cpu_time : t -> cpu:int -> int -> unit

(** [stats t ~cpu] is the CPU's mutable statistics record. *)
val stats : t -> cpu:int -> cpu_stats

(** [tick t ~cpu n] charges [n] cycles of instruction execution. *)
val tick : t -> cpu:int -> int -> unit

(** [add_stall t ~cpu n] charges non-memory stall (contention
    adjustment, barrier spin). *)
val add_stall : t -> cpu:int -> int -> unit

(** [add_onchip_stall t ~cpu n] charges instruction-fetch stall
    serviced by the external cache (fpppp's bottleneck, §4.1). *)
val add_onchip_stall : t -> cpu:int -> int -> unit

(** [kernel t ~cpu n] charges kernel time. *)
val kernel : t -> cpu:int -> int -> unit

(** [access t ~cpu ~vaddr ~write ~translate] simulates one data
    reference.  [translate ~cpu ~vpage] returns
    [(frame, kernel_cycles)] with a nonzero cost when it faulted. *)
val access :
  t ->
  cpu:int ->
  vaddr:int ->
  write:bool ->
  translate:(cpu:int -> vpage:int -> int * int) ->
  unit

(** [prefetch t ~cpu ~vaddr] models a non-binding prefetch (§6.2):
    dropped on TLB miss, skipped when already cached/in flight, fills
    the external cache only; a fifth outstanding prefetch stalls. *)
val prefetch : t -> cpu:int -> vaddr:int -> unit

(** [consume_batch t ~cpu ~translate ~data ~len ~nrefs ~instr_per_iter
    ~extra_onchip_stall] is the batched access entry point: a fused
    prefetch/access/tick loop over packed reference entries
    ([data.(2i) = (vaddr lsl 1) lor write_bit], [data.(2i+1)] = prefetch
    delta, [0] = none).  [len] ints must cover whole innermost
    iterations of [nrefs] references; each group additionally charges
    [instr_per_iter] instruction cycles and [extra_onchip_stall]
    fetch-stall cycles.  Allocation-free; per-CPU state is hoisted out
    of the loop.  Raises [Invalid_argument] when [len] is not a multiple
    of [2 × nrefs]. *)
val consume_batch :
  t ->
  cpu:int ->
  translate:(cpu:int -> vpage:int -> int * int) ->
  data:int array ->
  len:int ->
  nrefs:int ->
  instr_per_iter:int ->
  extra_onchip_stall:int ->
  unit

(** [consume_runs t ~cpu ~translate ~data ~len ~nrefs ~strides
    ~instr_per_iter ~extra_onchip_stall] consumes a run-coalesced batch
    ({!Pcolor_comp.Walker.fill_runs} layout: a repeat [count] then one
    packed head iteration group per record).  The head group takes the
    full access path; the [count − 1] tail groups are retired with O(1)
    bulk counter/cycle arithmetic when every reference's run span stays
    in one L1 line that the head group left resident (dirty, for
    writes) — each tail access is then provably an L1 hit with no other
    observable effect.  Otherwise the tails fall back to per-reference
    consumption at [vaddr + strides.(r) × g]: byte-identical to the
    interpreter either way, against any producer.  Epoch boundaries are
    honored per tail group when a sampler is attached ({!consume_batch}
    placement); runs that provably end before the next boundary still
    retire in bulk.  Raises [Invalid_argument] on a malformed batch
    ([len] not a multiple of [1 + 2 × nrefs], a repeat count outside
    [1 .. 2{^30}], or [strides] shorter than [nrefs]). *)

val consume_runs :
  t ->
  cpu:int ->
  translate:(cpu:int -> vpage:int -> int * int) ->
  data:int array ->
  len:int ->
  nrefs:int ->
  strides:int array ->
  instr_per_iter:int ->
  extra_onchip_stall:int ->
  unit

(** {2 Cycle-epoch timeline sampling}

    A {!Pcolor_obs.Sampler.t} attached through the observability
    context turns the machine into a timeline producer: epoch
    boundaries are checked per innermost iteration group (inside
    {!consume_batch}; the interpreter and the barrier path call
    {!sample_point} at the matching stream positions) and each crossing
    commits one delta row of the full counter set plus the machine-wide
    bus categories and per-color conflict pressure. *)

(** [sampler_for ?epoch_cycles cfg] builds a sampler dimensioned for
    [cfg] ([epoch_cycles] defaults to
    {!Pcolor_obs.Sampler.default_epoch_cycles}); {!create} rejects a
    sampler whose dimensions don't match the machine. *)
val sampler_for : ?epoch_cycles:int -> Config.t -> Pcolor_obs.Sampler.t

(** [has_sampler t] is true when a timeline sampler is attached (hoist
    this out of hot loops). *)
val has_sampler : t -> bool

(** [sampler t] exposes the attached sampler. *)
val sampler : t -> Pcolor_obs.Sampler.t option

(** [sample_point t ~cpu] commits a timeline row iff [cpu]'s clock
    crossed its next epoch boundary; a no-op without a sampler. *)
val sample_point : t -> cpu:int -> unit

(** [sample_flush t] commits one final partial row per CPU (once), so
    column sums over all rows equal the end-of-run aggregates. *)
val sample_flush : t -> unit

(** [timeline_columns t] names every timeline column:
    [epoch; cpu; job; time], the per-CPU counter set, bus categories,
    and [conflict.color.N]. *)
val timeline_columns : t -> string list

(** [timeline_json t] is the schema-v4 ["timeline"] artifact section
    ([None] without a sampler); call {!sample_flush} first. *)
val timeline_json : t -> Pcolor_obs.Json.t option

(** [emit_timeline_counters t buf] renders committed rows as Chrome
    counter events ("l2-miss" and "pressure" tracks) into [buf]. *)
val emit_timeline_counters : t -> Pcolor_obs.Trace.buffer -> unit

(** [harvest_conflicts t ~min_count] returns frames with at least
    [min_count] conflict misses since the last harvest (hottest first)
    and resets the counters — feedback for dynamic recoloring. *)
val harvest_conflicts : t -> min_count:int -> (int * int) list

(** [invalidate_frame_everywhere t ~frame] drops every line of a
    physical page from every external cache (recoloring moved the data,
    or reclaim freed the frame).  One slice route serves the whole
    page on every CPU. *)
val invalidate_frame_everywhere : t -> frame:int -> unit

(** [touch_page t ~cpu ~vaddr ~translate] forces translation (first
    touch faults) without a cache access — the §5.3 Digital UNIX
    user-level CDPC path. *)
val touch_page :
  t -> cpu:int -> vaddr:int -> translate:(cpu:int -> vpage:int -> int * int) -> unit

(** [publish_metrics t reg] registers and sets the machine's summed
    cross-CPU counters (hits, misses by class, stalls, bus occupancy,
    prefetch and VM accounting) in [reg] — called once after a run, so
    the hot path carries no metric updates. *)
val publish_metrics : t -> Pcolor_obs.Metrics.t -> unit

(** [l1_cache t ~cpu] / [l2_cache t ~cpu] / [tlb t ~cpu] expose per-CPU
    components for tests and probes. *)
val l1_cache : t -> cpu:int -> Cache.t

val l2_cache : t -> cpu:int -> Slice.t

val tlb : t -> cpu:int -> Tlb.t

(** [reset_stats t] zeroes statistics, clocks, in-flight prefetches and
    the bus account while keeping cache/TLB/directory contents — the
    warm-up discard (§3.2). *)
val reset_stats : t -> unit
