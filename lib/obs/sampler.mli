(** Cycle-epoch counter sampler — the timeline store behind
    [--timeline].

    The producer (the simulated machine) drives the hot-path protocol:
    {!due} is one load and a compare; when it fires, the producer fills
    {!scratch} with cumulative counter values and calls {!commit},
    which stores a {e delta} row (per-CPU for the counter columns,
    global for the shared columns) into a flat preallocated int store.
    Growth doubles major-heap arrays only, so steady-state sampling
    allocates zero minor-heap words.  Summing any column over all rows
    (after the end-of-run flush commit) reproduces the aggregate
    counter exactly. *)

type t

(** Names of the leading columns of every row: [epoch; cpu; job; time]. *)
val header : string list

val default_epoch_cycles : int

(** [create ?epoch_cycles ~n_cpus ~n_counters ~n_global ()] dimensions
    a sampler: [n_counters] per-CPU columns and [n_global] machine-wide
    columns per row.  Raises [Invalid_argument] on a non-positive
    epoch. *)
val create : ?epoch_cycles:int -> n_cpus:int -> n_counters:int -> n_global:int -> unit -> t

val n_cpus : t -> int
val n_counters : t -> int
val n_global : t -> int
val n_rows : t -> int

(** [due t ~cpu ~time] is true when [cpu]'s clock crossed its next
    epoch boundary — the only check on the simulation hot path. *)
val due : t -> cpu:int -> time:int -> bool

(** [next_due t ~cpu] is the local cycle of [cpu]'s next epoch
    boundary: a consumer that can bound a whole bulk retirement below
    it may skip the per-group {!due} checks without changing a row. *)
val next_due : t -> cpu:int -> int

(** [scratch t] is the reusable cumulative-value buffer
    ([n_counters + n_global] wide) the producer fills before
    {!commit}. *)
val scratch : t -> int array

(** [commit t ~cpu ~time] appends one delta row from {!scratch} and
    arms [cpu]'s next epoch boundary. *)
val commit : t -> cpu:int -> time:int -> unit

(** [cell t ~row ~col] reads the committed store ([col] indexes the
    full row: header then counters then globals). *)
val cell : t -> row:int -> col:int -> int

(** [set_job t ~cpu asid] tags subsequent rows committed by [cpu] with
    address space [asid] (the scheduler's dispatch hook). *)
val set_job : t -> cpu:int -> int -> unit

(** [mark_switch t ~time ~from_asid ~to_asid] records a context-switch
    instant on the timeline. *)
val mark_switch : t -> time:int -> from_asid:int -> to_asid:int -> unit

(** One-shot end-of-run flush guard: {!flushed} after {!set_flushed}
    lets the producer commit final partial rows exactly once. *)
val flushed : t -> bool

val set_flushed : t -> unit

(** [reset t] discards rows and events and re-arms every boundary at
    one epoch — called when the machine's clocks rebase to zero after
    warm-up, so the timeline covers the measured pass only. *)
val reset : t -> unit

val iter_rows : t -> (int -> unit) -> unit

(** [to_json ~columns t] is the schema-v4 ["timeline"] artifact
    section: epoch size, column names (one per row column:
    {!header} + [n_counters] + [n_global]), delta rows, and
    switch events. *)
val to_json : columns:string list -> t -> Json.t
