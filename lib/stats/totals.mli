(** Weighted accumulation of simulation statistics: the flat record the
    representative-window technique (§3.2) folds phase deltas into,
    with the bus-contention stretch applied to the stretched counters
    and the phase occurrence weight to everything. *)

type t = {
  n_cpus : int;
  counters : float array;  (** {!Pcolor_memsim.Machine.counters} order *)
  time : float array;  (** per-CPU cycle counters *)
  ov_imbalance : float array;
  ov_sequential : float array;
  ov_suppressed : float array;
  ov_sync : float array;
  mutable wall : float;  (** accumulated weighted wall-clock cycles *)
}

(** [create ~n_cpus] is a zeroed accumulator. *)
val create : n_cpus:int -> t

(** [get t name] is the counter column [name] (a
    {!Pcolor_memsim.Machine.counters} row name).  Raises
    [Invalid_argument] on an unknown name. *)
val get : t -> string -> float

(** [snapshot machine ov] reads cumulative machine statistics and
    overhead accumulators into an absolute record. *)
val snapshot : Pcolor_memsim.Machine.t -> Overheads.t -> t

(** [accumulate ~into ~start ~fin ~f ~weight] folds the delta
    [fin − start]: stretched counters scaled by [f], everything
    multiplied by [weight]; the weighted wall adds the maximum per-CPU
    delta. *)
val accumulate : into:t -> start:t -> fin:t -> f:float -> weight:float -> unit

(** [total_mem_stall t] is all memory-system stall cycles (the
    [mem_stall] columns). *)
val total_mem_stall : t -> float

(** [sum_time t] is the combined (summed over CPUs) cycle count —
    Figure 2's metric. *)
val sum_time : t -> float
