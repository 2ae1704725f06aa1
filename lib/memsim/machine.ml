(** The simulated multiprocessor memory system.

    Each CPU owns a virtually-indexed on-chip data cache, a TLB, a
    physically-indexed external cache, a fully-associative shadow cache
    (for conflict/capacity classification) and a prefetch unit; the CPUs
    share a coherence directory and a bus account.

    Address translation is delegated to the caller through a [translate]
    callback so the memory system stays decoupled from the OS model: the
    VM kernel supplies the frame (servicing a page fault if needed) and
    reports the kernel cycles spent.

    Timing model: every CPU has a local cycle counter.  Instruction
    execution is charged by the runtime via {!tick}; this module charges
    memory stalls at {e uncontended} latencies and records them by cause,
    so the engine can apply the bus-contention stretch factor as a
    per-region fixed point (see {!Bus.stretch_factor}) without
    re-simulating. *)

type cpu_stats = {
  mutable instructions : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int; (* demand accesses that hit the external cache *)
  l2_miss_counts : Mclass.counts;
  mutable stall_onchip : int; (* cycles: on-chip miss serviced by L2 *)
  stall_by_class : int array; (* cycles of memory stall per miss class *)
  mutable stall_pf_late : int; (* demand arrived before its prefetch completed *)
  mutable stall_pf_full : int; (* 5th outstanding prefetch stalled the CPU *)
  mutable kernel_cycles : int;
  mutable tlb_misses : int;
  mutable page_fault_cycles : int;
  mutable pf_issued : int;
  mutable pf_dropped_tlb : int; (* prefetch to an unmapped page: dropped (§6.2) *)
  mutable pf_useless : int; (* target already cached or in flight *)
  mutable pf_useful : int; (* demand access hit a completed prefetch *)
}

let make_stats () =
  {
    instructions = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_miss_counts = Mclass.make_counts ();
    stall_onchip = 0;
    stall_by_class = Array.make 5 0;
    stall_pf_late = 0;
    stall_pf_full = 0;
    kernel_cycles = 0;
    tlb_misses = 0;
    page_fault_cycles = 0;
    pf_issued = 0;
    pf_dropped_tlb = 0;
    pf_useless = 0;
    pf_useful = 0;
  }

(* ---- the counter table ---------------------------------------------- *)

type source = Per_cpu of (cpu_stats -> int) | Machine_wide of (Bus.t -> int)

type counter = {
  name : string;
  source : source;
  cls : Mclass.t option;
  mem_stall : bool;
  stretched : bool;
}

(* Every counter the machine reports, named once: the timeline row, the
   metrics ("memsim." ^ name) and [Totals] derive from this table.
   Per-CPU rows come first, then the machine-wide bus rows.  [mem_stall]
   rows make up [total_mem_stall], by which the engine stretches the CPU
   clocks; [stretched] rows are the ones [Totals.accumulate] scales by
   the contention factor.  The two sets differ in the on-chip stall (a
   known deviation, DESIGN §6). *)
let counters =
  let cpu ?cls ?(mem_stall = false) ?(stretched = false) name read =
    { name; source = Per_cpu read; cls; mem_stall; stretched }
  in
  let per_class ?mem_stall ?stretched name read =
    List.map
      (fun c -> cpu ~cls:c ?mem_stall ?stretched (name c) (fun s -> read s (Mclass.index c)))
      Mclass.all
  in
  let bus name read =
    { name; source = Machine_wide read; cls = None; mem_stall = false; stretched = false }
  in
  Array.of_list
    ([
       cpu "instructions" (fun s -> s.instructions);
       cpu "l1_hits" (fun s -> s.l1_hits);
       cpu "l1_misses" (fun s -> s.l1_misses);
       cpu "l2_hits" (fun s -> s.l2_hits);
     ]
    @ per_class (fun c -> "l2_miss." ^ Mclass.to_string c) (fun s i -> s.l2_miss_counts.(i))
    @ [ cpu "stall.onchip_cycles" ~mem_stall:true (fun s -> s.stall_onchip) ]
    @ per_class ~mem_stall:true ~stretched:true
        (fun c -> "stall." ^ Mclass.to_string c ^ "_cycles")
        (fun s i -> s.stall_by_class.(i))
    @ [
        cpu "stall.prefetch_late_cycles" ~mem_stall:true ~stretched:true (fun s -> s.stall_pf_late);
        cpu "stall.prefetch_full_cycles" ~mem_stall:true ~stretched:true (fun s -> s.stall_pf_full);
        cpu "kernel_cycles" (fun s -> s.kernel_cycles);
        cpu "tlb_misses" (fun s -> s.tlb_misses);
        cpu "page_fault_cycles" (fun s -> s.page_fault_cycles);
        cpu "prefetch.issued" (fun s -> s.pf_issued);
        cpu "prefetch.dropped_tlb" (fun s -> s.pf_dropped_tlb);
        cpu "prefetch.useless" (fun s -> s.pf_useless);
        cpu "prefetch.useful" (fun s -> s.pf_useful);
        bus "bus.data_cycles" (fun b -> match Bus.categories b with d, _, _ -> d);
        bus "bus.writeback_cycles" (fun b -> match Bus.categories b with _, w, _ -> w);
        bus "bus.upgrade_cycles" (fun b -> match Bus.categories b with _, _, u -> u);
      ])

let n_per_cpu =
  Array.fold_left (fun n k -> match k.source with Per_cpu _ -> n + 1 | _ -> n) 0 counters

let n_machine_wide = Array.length counters - n_per_cpu

let column name =
  match Array.find_index (fun k -> String.equal k.name name) counters with
  | Some i -> i
  | None -> invalid_arg ("Machine.column: no counter " ^ name)

(** [total_mem_stall s] is every cycle of memory-system stall: on-chip
    miss service, external misses by class, and prefetch-related stalls. *)
let total_mem_stall s =
  Array.fold_left
    (fun acc k -> match k.source with Per_cpu f when k.mem_stall -> acc + f s | _ -> acc)
    0 counters

(* Translation-memo geometry: 64 direct-mapped entries indexed by the
   vpage's low bits — enough that the handful of pages a nest cycles
   through between TLB content changes rarely collide. *)
let memo_slots = 64

let memo_mask = memo_slots - 1

type cpu = {
  id : int;
  l1 : Cache.t;
  l2 : Slice.t;
  shadow : Shadow.t;
  tlb : Tlb.t;
  seen : Pcolor_util.Bitset.t; (* physical lines ever referenced by this CPU *)
  pf_ready : Pcolor_util.Itab.t; (* physical line -> completion time *)
  pf_inflight : int array; (* completion times of outstanding prefetches *)
  mutable pf_count : int; (* live entries in [pf_inflight] *)
  mutable time : int; (* local cycle counter *)
  (* translation memo: a small direct-mapped vpage->TLB-slot cache, each
     entry valid while the TLB generation it was filled under is
     unchanged — i.e. across recency refreshes but not across any
     insert/invalidate/flush, the only operations that move a
     translation between slots — so taking the fast path leaves TLB
     miss counts, recency order and eviction victims bit-identical to
     always looking up.  Multiple entries matter because a nest cycling
     through several arrays alternates pages on consecutive references,
     which defeated the old single-entry memo. *)
  memo_vpage : int array; (* -1 = invalid *)
  memo_slot : int array;
  memo_gen : int array;
  mutable stats : cpu_stats; (* replaced, not zeroed, by [reset_stats] *)
}

type t = {
  cfg : Config.t;
  cpus : cpu array;
  dir : Directory.t;
  bus : Bus.t;
  page_bits : int;
  page_mask : int;
  l1_line_bits : int;
  l2_line_bits : int;
  line_bus : int; (* bus cycles per L2 line transfer *)
  conflict_by_frame : Pcolor_util.Itab.t;
      (* physical page -> conflict misses since last harvest; feeds the
         dynamic-recoloring extension (the TLB-state + miss-counter
         detection of §2.1's dynamic policies) *)
  obs_trace : Pcolor_obs.Trace.buffer option; (* page-fault instant events *)
  attrib : Pcolor_obs.Attrib.t option;
      (* conflict-attribution engine: fed on the external-cache miss
         path only, so the hit path and the obs-off contract are
         untouched (one [option] branch per miss) *)
  sample_miss_stall : Pcolor_obs.Metrics.histogram option;
      (* per-miss stall histogram; allocated only under the
         PCOLOR_OBS_SAMPLE knob so the hot path stays one branch *)
  sampler : Pcolor_obs.Sampler.t option;
      (* cycle-epoch counter timeline (--timeline); epoch boundaries are
         checked per innermost iteration group, per reference in the
         interpreter and at barriers — never inside a reference *)
  n_colors : int;
  sampler_colors : int array;
      (* cumulative conflict misses per page color; fed at the l2-miss
         classification site only when a sampler is attached *)
}

(** [sampler_for ?epoch_cycles cfg] dimensions a timeline sampler for
    [cfg]: the table's per-CPU rows, then its machine-wide rows and
    per-color conflict pressure. *)
let sampler_for ?epoch_cycles (cfg : Config.t) =
  Pcolor_obs.Sampler.create ?epoch_cycles ~n_cpus:cfg.n_cpus ~n_counters:n_per_cpu
    ~n_global:(n_machine_wide + Config.n_colors cfg) ()

(** [create ?obs cfg] builds an empty machine.  [obs] (default
    disabled) attaches the observability context: page faults become
    trace instants, and with sampling on, per-miss stalls feed a
    histogram. *)
let create ?(obs = Pcolor_obs.Ctx.disabled) (cfg : Config.t) =
  (* one resolved hash shared by every CPU's (immutable-hash) slice set *)
  let l2_hash = Config.resolved_hash cfg in
  let l2_page_bits = Pcolor_util.Bits.log2 cfg.page_size in
  (* one bit per line of 4× the aggregate L2 (the kernel's
     cache-derived frame-pool size), so a CPU streaming over that range
     never grows [seen]; [Bitset.set] grows it past that *)
  let seen_bits = 4 * cfg.n_cpus * (cfg.l2.size / cfg.l2.line) in
  let mk id =
    {
      id;
      l1 = Cache.create cfg.l1;
      l2 = Slice.create cfg.l2 ~n_slices:cfg.l2_slices ~hash:l2_hash ~page_bits:l2_page_bits;
      shadow = Shadow.create cfg.l2;
      tlb = Tlb.create ~entries:cfg.tlb_entries;
      seen = Pcolor_util.Bitset.create seen_bits;
      pf_ready = Pcolor_util.Itab.create ~capacity:64 ();
      pf_inflight = Array.make (max 1 cfg.max_outstanding_prefetches) 0;
      pf_count = 0;
      time = 0;
      memo_vpage = Array.make memo_slots (-1);
      memo_slot = Array.make memo_slots 0;
      memo_gen = Array.make memo_slots 0;
      stats = make_stats ();
    }
  in
  {
    cfg;
    cpus = Array.init cfg.n_cpus mk;
    dir = Directory.create ~n_cpus:cfg.n_cpus ~line_size:cfg.l2.line ();
    bus = Bus.create ();
    page_bits = Pcolor_util.Bits.log2 cfg.page_size;
    page_mask = cfg.page_size - 1;
    l1_line_bits = Pcolor_util.Bits.log2 cfg.l1.line;
    l2_line_bits = Pcolor_util.Bits.log2 cfg.l2.line;
    line_bus = Config.line_bus_cycles cfg;
    conflict_by_frame = Pcolor_util.Itab.create ~capacity:1024 ();
    obs_trace = Pcolor_obs.Ctx.trace obs;
    attrib = Pcolor_obs.Ctx.attrib obs;
    sample_miss_stall =
      (match Pcolor_obs.Ctx.metrics obs with
      | Some reg when obs.Pcolor_obs.Ctx.sample ->
        Some
          (Pcolor_obs.Metrics.histogram reg "memsim.sampled.miss_stall_cycles"
             ~bounds:[| 16; 64; 256; 1024; 4096; 16384 |])
      | _ -> None);
    sampler =
      (match Pcolor_obs.Ctx.sampler obs with
      | None -> None
      | Some sm ->
        let module S = Pcolor_obs.Sampler in
        if
          S.n_cpus sm <> cfg.n_cpus
          || S.n_counters sm <> n_per_cpu
          || S.n_global sm <> n_machine_wide + Config.n_colors cfg
        then invalid_arg "Machine.create: sampler dimensions do not match the machine (use sampler_for)";
        Some sm);
    n_colors = Config.n_colors cfg;
    sampler_colors = Array.make (Config.n_colors cfg) 0;
  }

(** [config t] is the machine's configuration. *)
let config t = t.cfg

(** [bus t] exposes the shared bus account (the engine reads and resets
    it per region). *)
let bus t = t.bus

(** [n_cpus t] is the processor count. *)
let n_cpus t = t.cfg.n_cpus

(** [cpu_time t ~cpu] is CPU [cpu]'s local cycle counter. *)
let cpu_time t ~cpu = t.cpus.(cpu).time

(** [set_cpu_time t ~cpu v] forces the counter (barrier synchronization
    advances every CPU to the region's arrival max). *)
let set_cpu_time t ~cpu v = t.cpus.(cpu).time <- v

(** [stats t ~cpu] is CPU [cpu]'s mutable statistics record. *)
let stats t ~cpu = t.cpus.(cpu).stats

(** [total t i] is column [i]'s machine-wide value: a per-CPU counter
    summed over every CPU. *)
let total t i =
  match counters.(i).source with
  | Per_cpu f -> Array.fold_left (fun acc c -> acc + f c.stats) 0 t.cpus
  | Machine_wide f -> f t.bus

(** [tick t ~cpu n] charges [n] cycles of instruction execution
    ([n] instructions on the single-issue CPU). *)
let tick t ~cpu n =
  let c = t.cpus.(cpu) in
  c.time <- c.time + n;
  c.stats.instructions <- c.stats.instructions + n

(** [add_stall t ~cpu n] charges [n] cycles of non-memory stall (the
    engine uses this for contention adjustment and barrier spin). *)
let add_stall t ~cpu n = t.cpus.(cpu).time <- t.cpus.(cpu).time + n

(** [add_onchip_stall t ~cpu n] charges [n] cycles of stall serviced by
    the external cache without a data reference — used to model
    instruction fetches that miss on chip (fpppp is bound by them,
    §4.1). *)
let add_onchip_stall t ~cpu n =
  let c = t.cpus.(cpu) in
  c.time <- c.time + n;
  c.stats.stall_onchip <- c.stats.stall_onchip + n

(** [kernel t ~cpu n] charges [n] cycles of kernel time. *)
let kernel t ~cpu n =
  let c = t.cpus.(cpu) in
  c.time <- c.time + n;
  c.stats.kernel_cycles <- c.stats.kernel_cycles + n

let vpage_of t vaddr = vaddr lsr t.page_bits

let paddr_of t ~frame ~vaddr = (frame lsl t.page_bits) lor (vaddr land t.page_mask)

(* Translate a virtual address, servicing TLB misses and delegating page
   faults to the kernel callback. Returns the physical address.

   The per-CPU memo short-circuits the TLB probe for the overwhelmingly
   common consecutive-references-to-one-page case: while the TLB
   generation is unchanged the memoized TLB slot provably still holds
   the translation, so a real lookup would hit — [Tlb.touch] replays
   exactly that hit's recency effect on the slot. *)
let translate_addr t c ~translate vaddr =
  let vpage = vpage_of t vaddr in
  let m = vpage land memo_mask in
  let slot =
    if
      Array.unsafe_get c.memo_vpage m = vpage
      && Array.unsafe_get c.memo_gen m = Tlb.generation c.tlb
    then begin
      let slot = Array.unsafe_get c.memo_slot m in
      Tlb.touch c.tlb slot;
      slot
    end
    else begin
      let slot =
        let hit = Tlb.lookup_slot c.tlb vpage in
        if hit >= 0 then hit
        else begin
          c.stats.tlb_misses <- c.stats.tlb_misses + 1;
          kernel t ~cpu:c.id t.cfg.tlb_miss_cycles;
          let frame, fault_cycles = translate ~cpu:c.id ~vpage in
          if fault_cycles > 0 then begin
            kernel t ~cpu:c.id fault_cycles;
            c.stats.page_fault_cycles <- c.stats.page_fault_cycles + fault_cycles;
            match t.obs_trace with
            | Some buf ->
              Pcolor_obs.Trace.instant buf ~ts:c.time ~tid:c.id ~cat:"vm"
                ~args:[ ("vpage", Pcolor_obs.Json.Int vpage); ("frame", Pcolor_obs.Json.Int frame); ("cycles", Pcolor_obs.Json.Int fault_cycles) ]
                "page-fault"
            | None -> ()
          end;
          Tlb.insert c.tlb ~vpage ~frame
        end
      in
      Array.unsafe_set c.memo_vpage m vpage;
      Array.unsafe_set c.memo_slot m slot;
      Array.unsafe_set c.memo_gen m (Tlb.generation c.tlb);
      slot
    end
  in
  paddr_of t ~frame:(Tlb.frame_at c.tlb slot) ~vaddr

(* Invalidate every other CPU's cached copies of a line the writer just
   acquired exclusively. L1 is virtually indexed, so it is invalidated by
   virtual address (all CPUs share one address space); L2 by physical,
   in slice [sl] — the line's {!Slice.route}, the same on every CPU
   because all CPUs share one external-cache geometry and hash. *)
let invalidate_others t ~writer ~vaddr ~paddr ~sl ~mask =
  if mask <> 0 then
    for i = 0 to t.cfg.n_cpus - 1 do
      if i <> writer && mask land (1 lsl i) <> 0 then begin
        let peer = t.cpus.(i) in
        Cache.invalidate peer.l1 vaddr;
        Cache.invalidate (Slice.slice peer.l2 sl) paddr
      end
    done

(* Service an external-cache miss: classify, charge latency and bus
   occupancy, update directory. [pline] is the physical line number and
   [sl] its slice route. *)
let l2_miss t c ~vaddr ~paddr ~pline ~sl ~write ~fa_hit ~evicted ~evicted_dirty =
  let s = c.stats in
  (* victim write-back *)
  if evicted_dirty then begin
    Bus.add_writeback t.bus t.line_bus;
    Directory.writeback t.dir ~cpu:c.id ~line:evicted
  end;
  (* classification *)
  let verdict = Directory.inspect t.dir ~cpu:c.id ~line:pline ~addr:paddr in
  let cls : Mclass.t =
    if not (Pcolor_util.Bitset.mem c.seen pline) then Cold
    else if not (Directory.v_coherent verdict) then
      match Directory.v_sharing verdict with
      | `True -> True_sharing
      | `False | `None -> False_sharing
    else if fa_hit then Conflict
    else Capacity
  in
  Mclass.incr s.l2_miss_counts cls;
  (* attribution rides the same classification site so its totals
     reconcile exactly with the Mclass counters *)
  (match t.attrib with
  | Some a ->
    Pcolor_obs.Attrib.record a ~cls:(Mclass.index cls) ~frame:(paddr lsr t.page_bits)
      ~set:(Slice.set_of_line c.l2 pline)
      ~victim_frame:(if evicted >= 0 then evicted lsr (t.page_bits - t.l2_line_bits) else -1)
      ~replacement:(Mclass.is_replacement cls)
  | None -> ());
  (* single-probe upsert (the Hashtbl version paid a find_opt plus a
     replace, re-hashing the key and allocating a [Some] each time) *)
  if cls = Conflict then begin
    Pcolor_util.Itab.add t.conflict_by_frame (paddr lsr t.page_bits) 1;
    (* per-color conflict pressure for the timeline: same site, so
       color sums reconcile exactly with the conflict-class counter *)
    match t.sampler with
    | Some _ ->
      let color = (paddr lsr t.page_bits) mod t.n_colors in
      t.sampler_colors.(color) <- t.sampler_colors.(color) + 1
    | None -> ()
  end;
  (* latency and bus occupancy *)
  let base = if Directory.v_remote_dirty verdict then t.cfg.remote_cycles else t.cfg.mem_cycles in
  s.stall_by_class.(Mclass.index cls) <- s.stall_by_class.(Mclass.index cls) + base;
  c.time <- c.time + base;
  (match t.sample_miss_stall with Some h -> Pcolor_obs.Metrics.observe h base | None -> ());
  Bus.add_data t.bus t.line_bus;
  (* directory update *)
  if write then begin
    let mask = Directory.record_write t.dir ~cpu:c.id ~line:pline ~addr:paddr in
    invalidate_others t ~writer:c.id ~vaddr ~paddr ~sl ~mask
  end
  else if Directory.record_read t.dir ~cpu:c.id ~line:pline then
    (* remote dirty copy supplied the data and became clean; the owner's
       caches lose their dirty (exclusive) state so its next write is an
       upgrade again — L1 is virtually indexed, shared address space *)
    for i = 0 to t.cfg.n_cpus - 1 do
      if i <> c.id then begin
        let peer = t.cpus.(i) in
        Cache.clean (Slice.slice peer.l2 sl) paddr;
        Cache.clean peer.l1 vaddr
      end
    done;
  Pcolor_util.Bitset.set c.seen pline

(* A write that hit a clean line may need a shared->exclusive upgrade. *)
let upgrade_on_write t c ~vaddr ~paddr ~pline ~sl =
  let mask = Directory.record_write t.dir ~cpu:c.id ~line:pline ~addr:paddr in
  if mask <> 0 then begin
    Bus.add_upgrade t.bus t.cfg.upgrade_bus_cycles;
    invalidate_others t ~writer:c.id ~vaddr ~paddr ~sl ~mask
  end

(* The access path parameterized on the per-CPU record, so the run
   consumer below hoists the [t.cpus.(cpu)] load out of its loop. *)
let access_cpu t c ~vaddr ~write ~translate =
  let s = c.stats in
  let r1 = Cache.access c.l1 ~addr:vaddr ~write in
  if Cache.res_hit r1 then begin
    s.l1_hits <- s.l1_hits + 1;
    if write && not (Cache.res_dirty r1) then begin
      (* Possible shared->exclusive upgrade; L2 must learn the dirty state. *)
      let paddr = translate_addr t c ~translate vaddr in
      let pline = paddr lsr t.l2_line_bits in
      let sl = Slice.route c.l2 paddr in
      Cache.set_dirty_if_present (Slice.slice c.l2 sl) paddr;
      upgrade_on_write t c ~vaddr ~paddr ~pline ~sl
    end
  end
  else begin
    s.l1_misses <- s.l1_misses + 1;
    let paddr = translate_addr t c ~translate vaddr in
    let pline = paddr lsr t.l2_line_bits in
    (* The L1 victim's dirty data is not sunk into L2 (approximate: we do
       not retain the victim's own address mapping, so we skip it; the
       original write already set the L2 dirty bit on its own path). *)
    let fa_hit = Shadow.access c.shadow pline in
    (* one route per external-cache event: the access, the coherence
       actions on peers and the upgrade all reuse it *)
    let sl = Slice.route c.l2 paddr in
    let r2 = Cache.access (Slice.slice c.l2 sl) ~addr:paddr ~write in
    if Cache.res_hit r2 then begin
      s.l2_hits <- s.l2_hits + 1;
      s.stall_onchip <- s.stall_onchip + t.cfg.l2_hit_cycles;
      c.time <- c.time + t.cfg.l2_hit_cycles;
      (* Was this line prefetched and still in flight?  The emptiness
         guard keeps demand-only runs from paying a hash probe per L2
         hit for a table that never has entries. *)
      let ready =
        if Pcolor_util.Itab.length c.pf_ready = 0 then min_int
        else Pcolor_util.Itab.find c.pf_ready pline ~default:min_int
      in
      if ready <> min_int then begin
        if ready > c.time then begin
          let wait = ready - c.time in
          s.stall_pf_late <- s.stall_pf_late + wait;
          c.time <- c.time + wait
        end;
        s.pf_useful <- s.pf_useful + 1;
        Pcolor_util.Itab.remove c.pf_ready pline
      end;
      if write && not (Cache.res_dirty r2) then upgrade_on_write t c ~vaddr ~paddr ~pline ~sl
      (* no [seen] insert here: every path that put the line into L2 (a
         demand miss or a prefetch fill) already recorded it *)
    end
    else
      l2_miss t c ~vaddr ~paddr ~pline ~sl ~write ~fa_hit ~evicted:(Cache.res_victim r2)
        ~evicted_dirty:(Cache.res_dirty r2)
  end

(** [access t ~cpu ~vaddr ~write ~translate] simulates one data
    reference by CPU [cpu] to virtual address [vaddr].

    [translate ~cpu ~vpage] must return [(frame, kernel_cycles)] where
    [kernel_cycles] is nonzero when the lookup faulted.  The call charges
    all stall and kernel time to the CPU's local clock and statistics. *)
let access t ~cpu ~vaddr ~write ~translate = access_cpu t t.cpus.(cpu) ~vaddr ~write ~translate

(* Drop completed prefetches from the in-flight ring (one in-place
   compaction — the old list representation re-ran [List.filter] and
   re-counted on every issue). *)
let retire_prefetches c =
  let live = ref 0 in
  for i = 0 to c.pf_count - 1 do
    let done_at = c.pf_inflight.(i) in
    if done_at > c.time then begin
      c.pf_inflight.(!live) <- done_at;
      incr live
    end
  done;
  c.pf_count <- !live

(* The prefetch path on the per-CPU record (same hoisting contract as
   [access_cpu]). *)
let prefetch_cpu t c ~vaddr =
  let cpu = c.id in
  let s = c.stats in
  s.pf_issued <- s.pf_issued + 1;
  let vpage = vpage_of t vaddr in
  let frame =
    (* the memo proves residency while the generation is unchanged, and a
       probe has no counter or recency effects to replay *)
    let m = vpage land memo_mask in
    if
      Array.unsafe_get c.memo_vpage m = vpage
      && Array.unsafe_get c.memo_gen m = Tlb.generation c.tlb
    then Tlb.frame_at c.tlb (Array.unsafe_get c.memo_slot m)
    else Tlb.probe_frame c.tlb vpage
  in
  if frame < 0 then s.pf_dropped_tlb <- s.pf_dropped_tlb + 1
  else begin
    let paddr = paddr_of t ~frame ~vaddr in
    let pline = paddr lsr t.l2_line_bits in
    let sl = Slice.route c.l2 paddr in
    let l2 = Slice.slice c.l2 sl in
    if Cache.contains l2 paddr || Pcolor_util.Itab.mem c.pf_ready pline then
      s.pf_useless <- s.pf_useless + 1
    else begin
      (* Retire completed prefetches, then enforce the slot limit. *)
      retire_prefetches c;
      if c.pf_count >= t.cfg.max_outstanding_prefetches then begin
        let earliest = ref max_int in
        for i = 0 to c.pf_count - 1 do
          if c.pf_inflight.(i) < !earliest then earliest := c.pf_inflight.(i)
        done;
        let wait = !earliest - c.time in
        s.stall_pf_full <- s.stall_pf_full + wait;
        c.time <- c.time + wait;
        retire_prefetches c
      end;
      let verdict = Directory.inspect t.dir ~cpu ~line:pline ~addr:paddr in
      let base =
        if Directory.v_remote_dirty verdict then t.cfg.remote_cycles else t.cfg.mem_cycles
      in
      let done_at = c.time + base in
      c.pf_inflight.(c.pf_count) <- done_at;
      c.pf_count <- c.pf_count + 1;
      Pcolor_util.Itab.set c.pf_ready pline done_at;
      Bus.add_data t.bus t.line_bus;
      ignore (Shadow.access c.shadow pline);
      let r = Cache.access l2 ~addr:paddr ~write:false in
      if (not (Cache.res_hit r)) && Cache.res_dirty r then begin
        Bus.add_writeback t.bus t.line_bus;
        Directory.writeback t.dir ~cpu ~line:(Cache.res_victim r)
      end;
      if Directory.record_read t.dir ~cpu ~line:pline then
        for i = 0 to t.cfg.n_cpus - 1 do
          if i <> cpu then Cache.clean (Slice.slice t.cpus.(i).l2 sl) paddr
        done;
      Pcolor_util.Bitset.set c.seen pline
    end
  end

(** [prefetch t ~cpu ~vaddr] models a non-binding prefetch instruction
    (§6.2): dropped on a TLB miss, ignored when the target is already
    cached or in flight, otherwise fetched into the external cache only.
    A fifth outstanding prefetch stalls the CPU until a slot frees. *)
let prefetch t ~cpu ~vaddr = prefetch_cpu t t.cpus.(cpu) ~vaddr

(* ---- cycle-epoch timeline sampling ---------------------------------- *)

(** [has_sampler t] lets callers hoist the timeline check out of their
    hot loops. *)
let has_sampler t = match t.sampler with Some _ -> true | None -> false

(** [sampler t] exposes the attached timeline sampler. *)
let sampler t = t.sampler

(* Fill the sampler scratch buffer with CPU [c]'s cumulative counters
   in table order (per-CPU rows, then the machine-wide ones) followed by
   the per-color conflict pressure. *)
let fill_scratch t c (buf : int array) =
  for i = 0 to Array.length counters - 1 do
    buf.(i) <- (match counters.(i).source with Per_cpu f -> f c.stats | Machine_wide f -> f t.bus)
  done;
  Array.blit t.sampler_colors 0 buf (Array.length counters) t.n_colors

let commit_sample t sm c =
  fill_scratch t c (Pcolor_obs.Sampler.scratch sm);
  Pcolor_obs.Sampler.commit sm ~cpu:c.id ~time:c.time

(** [sample_point t ~cpu] checks [cpu]'s epoch boundary and commits a
    timeline row when it has been crossed.  Callers place this at the
    engine-identical points of the reference stream: per innermost
    iteration and per barrier arrival. *)
let sample_point t ~cpu =
  match t.sampler with
  | None -> ()
  | Some sm ->
    let c = t.cpus.(cpu) in
    if Pcolor_obs.Sampler.due sm ~cpu ~time:c.time then commit_sample t sm c

(** [sample_flush t] commits one final partial row per CPU so the
    timeline's column sums telescope exactly to the end-of-run
    aggregate counters (the reconciliation invariant).  Idempotent. *)
let sample_flush t =
  match t.sampler with
  | None -> ()
  | Some sm ->
    if not (Pcolor_obs.Sampler.flushed sm) then begin
      Array.iter (fun c -> commit_sample t sm c) t.cpus;
      Pcolor_obs.Sampler.set_flushed sm
    end

(** [timeline_columns t] names every column of a timeline row, header
    included. *)
let timeline_columns t =
  Pcolor_obs.Sampler.header
  @ Array.to_list (Array.map (fun k -> k.name) counters)
  @ List.init t.n_colors (fun i -> "conflict.color." ^ string_of_int i)

(** [timeline_json t] is the schema-v4 ["timeline"] artifact section,
    when a sampler is attached (callers run {!sample_flush} first). *)
let timeline_json t =
  match t.sampler with
  | None -> None
  | Some sm -> Some (Pcolor_obs.Sampler.to_json ~columns:(timeline_columns t) sm)

(** [emit_timeline_counters t buf] renders the committed timeline as
    Chrome [counterEvent]s ("l2-miss" per-class series and a
    "pressure" track) so it opens in Perfetto next to the span view. *)
let emit_timeline_counters t buf =
  match t.sampler with
  | None -> ()
  | Some sm ->
    let module S = Pcolor_obs.Sampler in
    let columns = timeline_columns t in
    let col name = Option.get (List.find_index (String.equal name) columns) in
    let cpu_col = col "cpu" and time_col = col "time" in
    let miss_cols =
      List.map (fun c -> (Mclass.to_string c, col ("l2_miss." ^ Mclass.to_string c))) Mclass.all
    in
    let bus_cols = List.init n_machine_wide (fun i -> col counters.(n_per_cpu + i).name) in
    let color_cols = List.init t.n_colors (fun i -> col ("conflict.color." ^ string_of_int i)) in
    S.iter_rows sm (fun r ->
        let cell c = S.cell sm ~row:r ~col:c in
        let sum cols = List.fold_left (fun acc c -> acc + cell c) 0 cols in
        let cpu = cell cpu_col and time = cell time_col in
        let miss_args = List.map (fun (cls, c) -> (cls, Pcolor_obs.Json.Int (cell c))) miss_cols in
        Pcolor_obs.Trace.counter buf ~ts:time ~tid:cpu ~cat:"timeline" ~args:miss_args "l2-miss";
        Pcolor_obs.Trace.counter buf ~ts:time ~tid:cpu ~cat:"timeline"
          ~args:
            [
              ("conflict_pressure", Pcolor_obs.Json.Int (sum color_cols));
              ("bus_busy", Pcolor_obs.Json.Int (sum bus_cols));
            ]
          "pressure")

(* Bound on a run record's repeat count; matches
   [Pcolor_comp.Walker.max_run_count] (stated as a literal so memsim
   stays independent of the compiler layer). *)
let max_run_count = 1 lsl 30

(** [consume_runs t ~cpu ~translate ~data ~len ~nrefs ~strides
    ~instr_per_iter ~extra_onchip_stall] consumes a run-coalesced batch
    ({!Pcolor_comp.Walker.fill_runs} layout: a repeat [count] then one
    packed head iteration group, [1 + 2 × nrefs] ints per record).  The
    head group takes the full per-reference access path; the remaining
    [count − 1] tail groups are retired with O(1) bulk counter/cycle
    arithmetic when they are provably pure L1 hits.

    The proof obligation, revalidated here with the machine's own
    geometry so a disagreeing producer (or hostile tape) degrades to
    correctness rather than corruption: for every reference, the span
    [vaddr .. vaddr + stride × (count − 1)] stays inside one L1 line
    {e and} after the head group that line is resident — dirty, for
    writes — in L1.  Then each tail access is an L1 hit whose only
    observable effect is one [l1_hits] increment: hits never evict (so
    residency is inductive over the run), writes to an already-dirty
    line skip translation and coherence, and skipping the tail LRU
    stamp refreshes preserves every future victim choice because the
    head group already made the run's lines the most recent in their
    sets, in the same relative order the tails would re-establish.
    Failing the check falls back to per-reference tail consumption
    (reconstructing addresses as [vaddr + stride × g]) — byte-identical
    either way.  Tail groups issue no prefetches: the producer only
    coalesces iterations whose prefetch targets the dedup provably
    suppresses.

    With a sampler attached, the epoch boundary is checked after every
    iteration group, head and tail alike — where the interpreter checks
    once per innermost iteration; a whole run that provably ends before
    the next boundary ({!Pcolor_obs.Sampler.next_due}) is still retired
    in bulk. *)
let consume_runs t ~cpu ~translate ~data ~len ~nrefs ~strides ~instr_per_iter
    ~extra_onchip_stall =
  if nrefs < 1 then invalid_arg "Machine.consume_runs: nrefs < 1";
  let stride = 1 + (2 * nrefs) in
  if len mod stride <> 0 then invalid_arg "Machine.consume_runs: partial run record";
  if Array.length strides < nrefs then
    invalid_arg "Machine.consume_runs: strides shorter than nrefs";
  let c = t.cpus.(cpu) in
  let s = c.stats in
  let sampler = t.sampler in
  let l1b = t.l1_line_bits in
  let per_group = instr_per_iter + extra_onchip_stall in
  let k = ref 0 in
  while !k < len do
    let base = !k in
    let count = Array.unsafe_get data base in
    if count < 1 || count > max_run_count then
      invalid_arg "Machine.consume_runs: run count out of bounds";
    (* head group: the full per-reference path *)
    let stop = base + stride in
    let j = ref (base + 1) in
    while !j < stop do
      let w0 = Array.unsafe_get data !j in
      let pf = Array.unsafe_get data (!j + 1) in
      let vaddr = w0 asr 1 in
      if pf <> 0 then prefetch_cpu t c ~vaddr:(vaddr + pf);
      access_cpu t c ~vaddr ~write:(w0 land 1 <> 0) ~translate;
      j := !j + 2
    done;
    c.time <- c.time + instr_per_iter;
    s.instructions <- s.instructions + instr_per_iter;
    if extra_onchip_stall > 0 then begin
      c.time <- c.time + extra_onchip_stall;
      s.stall_onchip <- s.stall_onchip + extra_onchip_stall
    end;
    (match sampler with
    | Some sm -> if Pcolor_obs.Sampler.due sm ~cpu ~time:c.time then commit_sample t sm c
    | None -> ());
    if count > 1 then begin
      let tails = count - 1 in
      let ok = ref true in
      let r = ref 0 in
      while !ok && !r < nrefs do
        let w0 = Array.unsafe_get data (base + 1 + (2 * !r)) in
        let va = w0 asr 1 in
        let st = Array.unsafe_get strides !r in
        if va asr l1b <> (va + (st * tails)) asr l1b then ok := false
        else begin
          let p = Cache.probe c.l1 ~addr:va in
          if not (Cache.res_hit p) || (w0 land 1 <> 0 && not (Cache.res_dirty p)) then
            ok := false
        end;
        incr r
      done;
      if !ok then begin
        let bulk () =
          s.l1_hits <- s.l1_hits + (nrefs * tails);
          s.instructions <- s.instructions + (instr_per_iter * tails);
          if extra_onchip_stall > 0 then
            s.stall_onchip <- s.stall_onchip + (extra_onchip_stall * tails);
          c.time <- c.time + (per_group * tails)
        in
        match sampler with
        | None -> bulk ()
        | Some sm ->
          if c.time + (per_group * tails) < Pcolor_obs.Sampler.next_due sm ~cpu then
            bulk ()
          else
            for _g = 1 to tails do
              s.l1_hits <- s.l1_hits + nrefs;
              s.instructions <- s.instructions + instr_per_iter;
              if extra_onchip_stall > 0 then
                s.stall_onchip <- s.stall_onchip + extra_onchip_stall;
              c.time <- c.time + per_group;
              if Pcolor_obs.Sampler.due sm ~cpu ~time:c.time then commit_sample t sm c
            done
      end
      else begin
        (* fallback: tails through the full path, addresses recomputed
           from the head group and the innermost strides *)
        for g = 1 to tails do
          let j = ref (base + 1) in
          let r = ref 0 in
          while !j < stop do
            let w0 = Array.unsafe_get data !j in
            let va = (w0 asr 1) + (Array.unsafe_get strides !r * g) in
            access_cpu t c ~vaddr:va ~write:(w0 land 1 <> 0) ~translate;
            j := !j + 2;
            incr r
          done;
          c.time <- c.time + instr_per_iter;
          s.instructions <- s.instructions + instr_per_iter;
          if extra_onchip_stall > 0 then begin
            c.time <- c.time + extra_onchip_stall;
            s.stall_onchip <- s.stall_onchip + extra_onchip_stall
          end;
          match sampler with
          | Some sm ->
            if Pcolor_obs.Sampler.due sm ~cpu ~time:c.time then commit_sample t sm c
          | None -> ()
        done
      end
    end;
    k := !k + stride
  done

(** [harvest_conflicts t ~min_count] returns frames that took at least
    [min_count] conflict misses since the last harvest, hottest first,
    and resets the counters — the feedback channel for the
    dynamic-recoloring extension (the §2.1 "TLB state + cache miss
    counters" detection mechanism). *)
let harvest_conflicts t ~min_count =
  let hot =
    Pcolor_util.Itab.fold
      (fun frame count acc -> if count >= min_count then (frame, count) :: acc else acc)
      t.conflict_by_frame []
  in
  Pcolor_util.Itab.reset t.conflict_by_frame;
  (* equal counts tie-break on the frame number: the pre-Itab sort left
     ties in hash-fold order, which was deterministic for a fixed table
     but fragile across table implementations *)
  List.sort (fun (fa, a) (fb, b) -> if a <> b then compare b a else compare fa fb) hot

(** [invalidate_frame_everywhere t ~frame] drops every line of a
    physical page from every CPU's external cache (the page's data
    moved to a different frame during recoloring, or the frame was
    reclaimed).  The page is routed once: all of its lines live in the
    same slice on every CPU. *)
let invalidate_frame_everywhere t ~frame =
  let base = frame lsl t.page_bits in
  let line = t.cfg.l2.line in
  let lines = t.cfg.page_size / line in
  let sl = Slice.route t.cpus.(0).l2 base in
  Array.iter
    (fun c ->
      let l2 = Slice.slice c.l2 sl in
      for l = 0 to lines - 1 do
        Cache.invalidate l2 (base + (l * line))
      done)
    t.cpus

(** [touch_page t ~cpu ~vaddr ~translate] forces translation (and hence
    a page fault on first touch) without a cache access — the
    Digital-UNIX-style user-level CDPC implementation colors pages by
    touching them in a chosen order at startup (§5.3). *)
let touch_page t ~cpu ~vaddr ~translate = ignore (translate_addr t t.cpus.(cpu) ~translate vaddr)

(** [publish_metrics t reg] registers and sets every table counter's
    machine-wide value in [reg] as ["memsim." ^ name] — called once per
    run after the measured pass, so the simulator hot path carries no
    metric updates.  Deterministic given a deterministic run. *)
let publish_metrics t reg =
  let module Mx = Pcolor_obs.Metrics in
  Array.iteri (fun i k -> Mx.add (Mx.counter reg ("memsim." ^ k.name)) (total t i)) counters

(** [l2_cache t ~cpu] / [tlb t ~cpu] expose per-CPU components for tests
    and detailed probes. *)
let l2_cache t ~cpu = t.cpus.(cpu).l2

let tlb t ~cpu = t.cpus.(cpu).tlb

(** [reset_stats t] zeroes every CPU's statistics and the bus account
    while keeping cache/TLB/directory contents — used to discard the
    warm-up window (§3.2). *)
let reset_stats t =
  Array.iter
    (fun c ->
      (* a fresh record: no caller holds a [cpu_stats] across a reset *)
      c.stats <- make_stats ();
      (* the local clock rebases to zero, so in-flight prefetch
         completion times from before the reset are meaningless *)
      c.pf_count <- 0;
      Pcolor_util.Itab.reset c.pf_ready;
      c.time <- 0)
    t.cpus;
  Bus.reset t.bus;
  Pcolor_util.Itab.reset t.conflict_by_frame;
  Array.fill t.sampler_colors 0 (Array.length t.sampler_colors) 0;
  (* the timeline, like the attribution tables below, describes the
     measured pass only: warm-up rows are discarded and every epoch
     boundary re-arms against the rebased clocks *)
  (match t.sampler with Some sm -> Pcolor_obs.Sampler.reset sm | None -> ());
  (* the attribution tables describe the measured pass only, like every
     other statistic this function discards *)
  match t.attrib with Some a -> Pcolor_obs.Attrib.reset a | None -> ()
