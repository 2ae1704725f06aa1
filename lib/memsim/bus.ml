(** Split-transaction bus model: bandwidth accounting plus a queueing
    stretch factor for contention.

    The paper's machine sustains 1.2 GB/s; with 16 processors several
    benchmarks occupy 50–95% of the bus and their miss latencies inflate
    (tomcatv's miss rate drops 3% from 1 to 16 CPUs yet its MCPI more
    than doubles, §4.1).  We reproduce this with an analytic model: the
    engine simulates a parallel region, sums the bus cycles its misses
    consume, computes occupancy against the region's wall-clock time, and
    re-costs memory stalls with an M/M/1-style latency multiplier.

    Bus cycles are counted in CPU cycles of occupancy, split by
    transaction type as in Figure 2's bus-utilization panel: data
    transfers (request+reply), write-backs, and shared→exclusive
    upgrades. *)

type t = {
  mutable data_cycles : int;
  mutable writeback_cycles : int;
  mutable upgrade_cycles : int;
}

(** [create ()] is a fresh, idle bus account. *)
let create () = { data_cycles = 0; writeback_cycles = 0; upgrade_cycles = 0 }

(** [reset t] zeroes all accumulated occupancy. *)
let reset t =
  t.data_cycles <- 0;
  t.writeback_cycles <- 0;
  t.upgrade_cycles <- 0

(** [add_data t c] / [add_writeback t c] / [add_upgrade t c] account [c]
    CPU cycles of bus occupancy to the respective category. *)
let add_data t c = t.data_cycles <- t.data_cycles + c

let add_writeback t c = t.writeback_cycles <- t.writeback_cycles + c

let add_upgrade t c = t.upgrade_cycles <- t.upgrade_cycles + c

(** [busy_cycles t] is total occupancy across categories. *)
let busy_cycles t = t.data_cycles + t.writeback_cycles + t.upgrade_cycles

(** [stretch_factor rho] multiplies memory latency under utilization
    [rho].  M/M/1 waiting-time shape [1 + rho/(1-rho)] with the pole
    clamped: utilization is capped at 0.95 so the factor never exceeds
    20; below 30% utilization contention is negligible and the factor is
    1.  This gives latencies that are flat until the bus approaches
    saturation and then climb steeply, matching Figure 2's behaviour. *)
let stretch_factor rho =
  if rho <= 0.30 then 1.0
  else
    let rho = Float.min rho 0.95 in
    1.0 +. ((rho -. 0.30) /. (1.0 -. rho))

(** [categories t] is [(data, writeback, upgrade)] occupancy in cycles. *)
let categories t = (t.data_cycles, t.writeback_cycles, t.upgrade_cycles)
