(** Split-transaction bus model: occupancy accounting by transaction
    category (data, write-back, upgrade — Figure 2's bus panel) plus an
    analytic M/M/1-style contention stretch applied per region by the
    engine. *)

type t

(** [create ()] is a fresh, idle bus account. *)
val create : unit -> t

(** [reset t] zeroes accumulated occupancy. *)
val reset : t -> unit

(** [add_data t c] / [add_writeback t c] / [add_upgrade t c] account
    [c] CPU cycles of bus occupancy. *)
val add_data : t -> int -> unit

val add_writeback : t -> int -> unit

val add_upgrade : t -> int -> unit

(** [busy_cycles t] is total occupancy. *)
val busy_cycles : t -> int

(** [stretch_factor rho] is the memory-latency multiplier under
    utilization [rho]: 1 below 30%, then climbing with the M/M/1
    waiting-time shape, clamped at the 0.95 pole. *)
val stretch_factor : float -> float

(** [categories t] is [(data, writeback, upgrade)] cycles. *)
val categories : t -> int * int * int
