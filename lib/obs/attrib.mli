(** Conflict-attribution engine: per-run accounting of {e which}
    physical pages conflict in the physically-indexed external cache.

    Attached to a run through {!Ctx} (like the metrics registry), fed by
    the machine's external-cache miss path, drained into the run
    artifact by [Pcolor_runtime.Audit].  Detached, the simulator pays
    one branch per miss; attached, recording is allocation-free in the
    steady state (open-addressing int tables, flat arrays).

    Class indices are positions in [Pcolor_memsim.Mclass.all]; this
    module never interprets them, so the dependency stays one-way
    (memsim depends on obs). *)

type t

(** [create ~n_colors ~n_classes ()] builds an empty engine for a
    machine with [n_colors] page colors and a miss taxonomy of
    [n_classes] classes (at most 8: class indices are packed into 3
    bits). *)
val create : n_colors:int -> n_classes:int -> unit -> t

(** [n_colors t] / [n_classes t] echo the creation geometry. *)
val n_colors : t -> int

(** [record t ~cls ~frame ~set ~victim_frame ~replacement] accounts one
    external-cache miss: class index [cls], evictor physical page
    [frame], cache set [set], evicted line's physical page
    [victim_frame] ([-1] when the way was empty).  [replacement] marks
    conflict/capacity misses — only those feed the eviction-pair and
    per-set tables.  Must be called at the same site that bumps the
    miss-class counter so totals reconcile exactly. *)
val record : t -> cls:int -> frame:int -> set:int -> victim_frame:int -> replacement:bool -> unit

(** [reset t] clears every table (warm-up discard). *)
val reset : t -> unit

(** [totals_by_class t] is the per-class miss count; reconciles exactly
    with the machine's summed miss-class counters. *)
val totals_by_class : t -> int array

(** [total t] sums every class. *)
val total : t -> int

(** [pairs t] is every (victim frame, evictor frame, count) eviction
    pair, hottest first (deterministic order: count desc, key asc). *)
val pairs : t -> (int * int * int) list

(** [distinct_pairs t] counts distinct eviction pairs. *)
val distinct_pairs : t -> int

(** [sets t] is every (external-cache set, replacement-miss count),
    hottest first. *)
val sets : t -> (int * int) list

(** [frames t] is every (frame, per-class miss counts) with at least
    one miss, by total misses descending. *)
val frames : t -> (int * int array) list

(** [color_counts t ~color] is the per-class miss counts of one page
    color. *)
val color_counts : t -> color:int -> int array
