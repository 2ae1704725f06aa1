(** Parallelization-overhead accounting (the categories of Figure 2's
    second panel, §4.1).

    - {b load imbalance}: difference in arrival times at the barrier
      ending a parallel region;
    - {b sequential}: slaves spinning while the master executes
      unparallelizable code;
    - {b suppressed}: slaves idle while the master alone runs a
      parallelizable loop the compiler suppressed as too fine-grained;
    - {b synchronization}: the software barrier/lock implementation
      itself.

    Kernel time is accounted inside the machine model
    ({!Pcolor_memsim.Machine.kernel}); this record holds the other four,
    in cycles, per CPU. *)

type t = {
  imbalance : float array;
  sequential : float array;
  suppressed : float array;
  sync : float array;
}

(** [create ~n_cpus] is a zeroed accumulator set. *)
let create ~n_cpus =
  {
    imbalance = Array.make n_cpus 0.0;
    sequential = Array.make n_cpus 0.0;
    suppressed = Array.make n_cpus 0.0;
    sync = Array.make n_cpus 0.0;
  }

(** [add_imbalance t ~cpu c] (etc.) accumulate [c] cycles. *)
let add_imbalance t ~cpu c = t.imbalance.(cpu) <- t.imbalance.(cpu) +. c

let add_sequential t ~cpu c = t.sequential.(cpu) <- t.sequential.(cpu) +. c

let add_suppressed t ~cpu c = t.suppressed.(cpu) <- t.suppressed.(cpu) +. c

let add_sync t ~cpu c = t.sync.(cpu) <- t.sync.(cpu) +. c

let sum = Array.fold_left ( +. ) 0.0

(** [totals t] is [(imbalance, sequential, suppressed, sync)] summed over
    CPUs. *)
let totals t = (sum t.imbalance, sum t.sequential, sum t.suppressed, sum t.sync)

(** [barrier_cost ~n_cpus] is the cycle cost of one software barrier —
    logarithmic in the processor count (a tournament barrier). *)
let barrier_cost ~n_cpus =
  if n_cpus <= 1 then 20
  else 50 + (25 * Pcolor_util.Bits.log2 (Pcolor_util.Bits.next_pow2 n_cpus))
