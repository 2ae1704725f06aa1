(** Parallelization-overhead accounting (Figure 2's categories, §4.1):
    load imbalance at barriers, sequential and suppressed slave idling,
    and synchronization cost, per CPU in cycles.  Kernel time is
    accounted inside the machine model. *)

type t = {
  imbalance : float array;
  sequential : float array;
  suppressed : float array;
  sync : float array;
}

(** [create ~n_cpus] is a zeroed accumulator set. *)
val create : n_cpus:int -> t

val add_imbalance : t -> cpu:int -> float -> unit

val add_sequential : t -> cpu:int -> float -> unit

val add_suppressed : t -> cpu:int -> float -> unit

val add_sync : t -> cpu:int -> float -> unit

(** [totals t] is [(imbalance, sequential, suppressed, sync)] summed
    over CPUs. *)
val totals : t -> float * float * float * float

(** [barrier_cost ~n_cpus] is one software barrier's cycle cost
    (logarithmic in the processor count). *)
val barrier_cost : n_cpus:int -> int
