(** Per-run experiment report: every metric the paper's tables and
    figures consume, derived from a weighted {!Totals} accumulator. *)

type t = {
  benchmark : string;
  machine : string;
  n_cpus : int;
  policy : string;
  prefetch : bool;
  (* time, in cycles *)
  wall_cycles : float; (* weighted wall-clock of the steady state *)
  combined_cycles : float; (* summed over CPUs (Figure 2 metric) *)
  exec_cycles : float; (* useful instruction execution *)
  mem_stall_cycles : float;
  (* memory behaviour *)
  instructions : float;
  mcpi : float; (* memory cycles per instruction (useful execution only) *)
  mcpi_onchip : float; (* stall from on-chip misses that hit the L2 *)
  mcpi_by_class : float array; (* per Mclass, external misses *)
  mcpi_prefetch : float; (* late-prefetch + full-queue stalls *)
  l2_misses_by_class : float array;
  l2_miss_rate : float; (* external misses / L1 misses *)
  (* overheads (summed over CPUs) *)
  ov_kernel : float;
  ov_imbalance : float;
  ov_sequential : float;
  ov_suppressed : float;
  ov_sync : float;
  (* bus *)
  bus_occupancy : float; (* [0,1]; demand may exceed 1 pre-stretch *)
  bus_data_frac : float;
  bus_wb_frac : float;
  bus_upg_frac : float;
  (* prefetching *)
  pf_issued : float;
  pf_dropped : float;
  pf_useful : float;
  (* VM *)
  tlb_misses : float;
  page_faults : int;
  hints_honored : int;
  hints_fallback : int;
}

(** [of_totals ~benchmark ~machine ~n_cpus ~policy ~prefetch ~page_faults
    ~hints_honored ~hints_fallback totals] computes the report. *)
let of_totals ~benchmark ~machine ~n_cpus ~policy ~prefetch ~page_faults ~hints_honored
    ~hints_fallback (tt : Totals.t) =
  let module C = Pcolor_memsim.Mclass in
  let get = Totals.get tt in
  let by_class column = Array.of_list (List.map (fun c -> get (column (C.to_string c))) C.all) in
  let miss = by_class (fun c -> "l2_miss." ^ c) in
  let instr = get "instructions" in
  let per_instr v = if instr <= 0.0 then 0.0 else v /. instr in
  let mem_stall = Totals.total_mem_stall tt in
  let combined = Totals.sum_time tt in
  let l1_misses = get "l1_misses" in
  let l2_misses = Array.fold_left ( +. ) 0.0 miss in
  let bus_data = get "bus.data_cycles" and bus_wb = get "bus.writeback_cycles" in
  let bus_upg = get "bus.upgrade_cycles" in
  let bus_busy = bus_data +. bus_wb +. bus_upg in
  let occupancy = if tt.wall <= 0.0 then 0.0 else bus_busy /. tt.wall in
  let frac v = if bus_busy <= 0.0 then 0.0 else v /. bus_busy in
  {
    benchmark;
    machine;
    n_cpus;
    policy;
    prefetch;
    wall_cycles = tt.wall;
    combined_cycles = combined;
    exec_cycles = instr;
    mem_stall_cycles = mem_stall;
    instructions = instr;
    mcpi = per_instr mem_stall;
    mcpi_onchip = per_instr (get "stall.onchip_cycles");
    mcpi_by_class = Array.map per_instr (by_class (fun c -> "stall." ^ c ^ "_cycles"));
    mcpi_prefetch =
      per_instr (get "stall.prefetch_late_cycles" +. get "stall.prefetch_full_cycles");
    l2_misses_by_class = miss;
    l2_miss_rate = (if l1_misses <= 0.0 then 0.0 else l2_misses /. l1_misses);
    ov_kernel = get "kernel_cycles";
    ov_imbalance = Array.fold_left ( +. ) 0.0 tt.ov_imbalance;
    ov_sequential = Array.fold_left ( +. ) 0.0 tt.ov_sequential;
    ov_suppressed = Array.fold_left ( +. ) 0.0 tt.ov_suppressed;
    ov_sync = Array.fold_left ( +. ) 0.0 tt.ov_sync;
    bus_occupancy = Float.min occupancy 1.0;
    bus_data_frac = frac bus_data;
    bus_wb_frac = frac bus_wb;
    bus_upg_frac = frac bus_upg;
    pf_issued = get "prefetch.issued";
    pf_dropped = get "prefetch.dropped_tlb";
    pf_useful = get "prefetch.useful";
    tlb_misses = get "tlb_misses";
    page_faults;
    hints_honored;
    hints_fallback;
  }

(** [total_overhead r] sums the five overhead categories. *)
let total_overhead r = r.ov_kernel +. r.ov_imbalance +. r.ov_sequential +. r.ov_suppressed +. r.ov_sync

(** [replacement_misses r] is the conflict+capacity external miss count
    (the paper's "replacement misses"). *)
let replacement_misses r =
  let module C = Pcolor_memsim.Mclass in
  r.l2_misses_by_class.(C.index Capacity) +. r.l2_misses_by_class.(C.index Conflict)

(** [conflict_misses r] isolates the class CDPC attacks. *)
let conflict_misses r = r.l2_misses_by_class.(Pcolor_memsim.Mclass.index Conflict)

(** [speedup ~base r] is base wall time over [r]'s wall time. *)
let speedup ~base r = Pcolor_obs.Stat.ratio base.wall_cycles r.wall_cycles

(** [to_json r] serializes every report field (per-class arrays keyed
    by miss-class name) for machine-readable artifacts. *)
let to_json r =
  let module C = Pcolor_memsim.Mclass in
  let module J = Pcolor_obs.Json in
  let by_class arr = J.Obj (List.map (fun c -> (C.to_string c, J.Float arr.(C.index c))) C.all) in
  J.Obj
    [
      ("benchmark", J.Str r.benchmark);
      ("machine", J.Str r.machine);
      ("n_cpus", J.Int r.n_cpus);
      ("policy", J.Str r.policy);
      ("prefetch", J.Bool r.prefetch);
      ("wall_cycles", J.Float r.wall_cycles);
      ("combined_cycles", J.Float r.combined_cycles);
      ("exec_cycles", J.Float r.exec_cycles);
      ("mem_stall_cycles", J.Float r.mem_stall_cycles);
      ("instructions", J.Float r.instructions);
      ("mcpi", J.Float r.mcpi);
      ("mcpi_onchip", J.Float r.mcpi_onchip);
      ("mcpi_by_class", by_class r.mcpi_by_class);
      ("mcpi_prefetch", J.Float r.mcpi_prefetch);
      ("l2_misses_by_class", by_class r.l2_misses_by_class);
      ("l2_miss_rate", J.Float r.l2_miss_rate);
      ("ov_kernel", J.Float r.ov_kernel);
      ("ov_imbalance", J.Float r.ov_imbalance);
      ("ov_sequential", J.Float r.ov_sequential);
      ("ov_suppressed", J.Float r.ov_suppressed);
      ("ov_sync", J.Float r.ov_sync);
      ("bus_occupancy", J.Float r.bus_occupancy);
      ("bus_data_frac", J.Float r.bus_data_frac);
      ("bus_wb_frac", J.Float r.bus_wb_frac);
      ("bus_upg_frac", J.Float r.bus_upg_frac);
      ("pf_issued", J.Float r.pf_issued);
      ("pf_dropped", J.Float r.pf_dropped);
      ("pf_useful", J.Float r.pf_useful);
      ("tlb_misses", J.Float r.tlb_misses);
      ("page_faults", J.Int r.page_faults);
      ("hints_honored", J.Int r.hints_honored);
      ("hints_fallback", J.Int r.hints_fallback);
    ]

(** [pp fmt r] prints a multi-line human-readable report. *)
let pp fmt r =
  let module C = Pcolor_memsim.Mclass in
  Format.fprintf fmt "@[<v>%s on %s: %d cpu(s), policy=%s%s@," r.benchmark r.machine r.n_cpus
    r.policy
    (if r.prefetch then " +prefetch" else "");
  Format.fprintf fmt "  wall %.3e cycles, combined %.3e, instructions %.3e@," r.wall_cycles
    r.combined_cycles r.instructions;
  Format.fprintf fmt "  MCPI %.3f (onchip %.3f, prefetch %.3f" r.mcpi r.mcpi_onchip r.mcpi_prefetch;
  List.iter
    (fun c -> Format.fprintf fmt ", %s %.3f" (C.to_string c) r.mcpi_by_class.(C.index c))
    C.all;
  Format.fprintf fmt ")@,";
  Format.fprintf fmt "  L2 misses:";
  List.iter
    (fun c -> Format.fprintf fmt " %s %.0f" (C.to_string c) r.l2_misses_by_class.(C.index c))
    C.all;
  Format.fprintf fmt "@,";
  Format.fprintf fmt
    "  overhead: kernel %.2e imbalance %.2e sequential %.2e suppressed %.2e sync %.2e@,"
    r.ov_kernel r.ov_imbalance r.ov_sequential r.ov_suppressed r.ov_sync;
  Format.fprintf fmt "  bus: %.1f%% occupied (data %.0f%%, wb %.0f%%, upg %.0f%%)@,"
    (100.0 *. r.bus_occupancy) (100.0 *. r.bus_data_frac) (100.0 *. r.bus_wb_frac)
    (100.0 *. r.bus_upg_frac);
  Format.fprintf fmt "  vm: %d faults, hints %d honored / %d fallback, %.0f TLB misses@]"
    r.page_faults r.hints_honored r.hints_fallback r.tlb_misses
