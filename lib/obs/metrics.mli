(** Named-metric registry: counters, gauges and fixed-bucket histograms
    with near-zero hot-path cost.

    Cells are bare [int Atomic.t] (or int arrays for histograms):
    incrementing allocates nothing, so instruments can stay compiled in
    and the per-event cost with observability off is a single branch at
    the call site.  Simulation code keeps one registry per run (so
    domain-parallel experiment grids stay deterministic: per-run
    snapshots are merged in submission order and integer addition is
    order-independent). *)

type t
(** A registry: a mutex-protected name → cell table.  Registration
    (name lookup) takes the lock; reads and updates of the returned
    cells never do. *)

type counter
type gauge

type histogram
(** Fixed upper-bound buckets plus an overflow bucket.  A value [v]
    lands in the first bucket whose bound satisfies [v <= bound], or in
    the overflow bucket past the last bound.  Bucket updates are plain
    (non-atomic) stores: histograms belong to per-run registries that a
    single domain owns. *)

(** An immutable reading of one cell. *)
type value =
  | Counter of int
  | Gauge of int
  | Histogram of { bounds : int array; counts : int array; sum : int; count : int }

type snapshot = (string * value) list
(** Sorted by metric name; comparable with [=]. *)

val create : unit -> t

(** [counter t name] registers (or finds) a counter.  Raises
    [Invalid_argument] if [name] exists with a different kind. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge

(** [histogram t name ~bounds] registers a histogram with the given
    strictly increasing upper bounds (at least one). *)
val histogram : t -> string -> bounds:int array -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit

val observe : histogram -> int -> unit

(** [snapshot t] reads every cell, sorted by name. *)
val snapshot : t -> snapshot

(** [merge snaps] sums snapshots element-wise: counters and gauges add,
    histograms add per-bucket (bounds must agree).  Raises
    [Invalid_argument] on kind or bound mismatches. *)
val merge : snapshot list -> snapshot

(** [to_json snap] is a name → descriptor object, e.g.
    [{"memsim.l1_hits":{"type":"counter","value":42}, ...}]. *)
val to_json : snapshot -> Json.t
