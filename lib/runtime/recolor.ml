(** Dynamic page recoloring — the §2.1 "dynamic policies" the paper
    cites as unstudied on multiprocessors, implemented here as an
    extension so the study can be run.

    Detection follows the TLB-state/miss-counter approach: the machine
    counts conflict misses per physical page; between phases the
    recoloring daemon harvests pages whose count crossed a threshold and
    remaps each to a frame of a distant color.

    The multiprocessor costs the paper warns about are modeled
    explicitly: the page copy occupies the bus and the triggering CPU's
    kernel time, every CPU's TLB entry is shot down (each shootdown
    charges kernel time on that CPU), and the stale lines of the old
    frame are invalidated in every external cache (so the immediately
    following accesses re-miss). *)

module M = Pcolor_memsim.Machine

type t = {
  machine : M.t;
  kernel : Pcolor_vm.Kernel.t;
  threshold : int; (* conflict misses per page per round to trigger *)
  max_per_round : int;
  mutable rounds : int;
  mutable recolorings : int;
  mutable copy_cycles : int;
  rng : Pcolor_util.Rng.t;
}

(** [create ~machine ~kernel ()] builds a recoloring daemon.
    [threshold] (default 12 conflict misses per page per round) and
    [max_per_round] (default 16) bound the aggressiveness. *)
let create ?(threshold = 12) ?(max_per_round = 16) ~machine ~kernel () =
  {
    machine;
    kernel;
    threshold;
    max_per_round;
    rounds = 0;
    recolorings = 0;
    copy_cycles = 0;
    rng = Pcolor_util.Rng.create 97;
  }

(* Cost of one recoloring: copying the page twice over the bus (read old
   frame + write new frame) plus kernel bookkeeping. *)
let copy_cost cfg =
  let bytes = 2 * cfg.Pcolor_memsim.Config.page_size in
  int_of_float (float_of_int bytes /. cfg.bus_bytes_per_cycle) + cfg.page_fault_cycles

(** [round t ~trigger_cpu] runs one detection/repair round: harvest hot
    pages, recolor up to [max_per_round] of them to a color half the
    color space away (jittered so repeated offenders spread out), and
    charge all costs.  Returns the number of pages recolored. *)
let round t ~trigger_cpu =
  t.rounds <- t.rounds + 1;
  let cfg = M.config t.machine in
  let n_colors = Pcolor_memsim.Config.n_colors cfg in
  let hot = M.harvest_conflicts t.machine ~min_count:t.threshold in
  let victims = List.filteri (fun i _ -> i < t.max_per_round) hot in
  let table = Pcolor_vm.Kernel.page_table t.kernel in
  let pool = Pcolor_vm.Kernel.pool t.kernel in
  let done_count = ref 0 in
  (* spread this round's victims over distinct target colors so two hot
     pages that shared a color do not collide again after the move *)
  let base_shift = (n_colors / 2) + Pcolor_util.Rng.int t.rng (max 1 (n_colors / 8)) in
  List.iteri
    (fun i (frame, _count) ->
      match Pcolor_vm.Page_table.vpage_of table frame with
      | -1 -> ()
      | vpage ->
        let old_color = Pcolor_vm.Frame_pool.color_of pool frame in
        let preferred = (old_color + base_shift + i) mod n_colors in
        (match Pcolor_vm.Kernel.recolor t.kernel ~vpage ~preferred with
        | None -> ()
        | Some (old_frame, _new_frame) ->
          incr done_count;
          t.recolorings <- t.recolorings + 1;
          (* copy cost on the triggering CPU, bus occupancy for the copy *)
          let cost = copy_cost cfg in
          t.copy_cycles <- t.copy_cycles + cost;
          M.kernel t.machine ~cpu:trigger_cpu cost;
          Pcolor_memsim.Bus.add_data (M.bus t.machine)
            (2 * cfg.page_size / int_of_float cfg.bus_bytes_per_cycle);
          (* TLB shootdown on every CPU *)
          for cpu = 0 to cfg.n_cpus - 1 do
            Pcolor_memsim.Tlb.invalidate (M.tlb t.machine ~cpu) vpage;
            M.kernel t.machine ~cpu cfg.tlb_miss_cycles
          done;
          (* stale data of the old frame leaves every cache *)
          M.invalidate_frame_everywhere t.machine ~frame:old_frame))
    victims;
  if !done_count > 0 then
    Logs.info ~src:Pcolor_obs.Log.src (fun m ->
        m "recoloring round %d: moved %d of %d hot pages (trigger cpu%d)" t.rounds !done_count
          (List.length victims) trigger_cpu);
  !done_count

(** [stats t] is [(rounds, recolorings, copy_cycles)]. *)
let stats t = (t.rounds, t.recolorings, t.copy_cycles)
