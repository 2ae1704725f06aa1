(** The VM kernel: page-fault handling tying a mapping policy to the
    physical frame pool; provides the [translate] callback the memory
    system expects, and the recoloring repair action of the dynamic
    extension. *)

type t

(** Raised on pool exhaustion when no reclaimer can free a frame;
    carries the faulting CPU and virtual page for diagnostics. *)
exception Out_of_frames of { cpu : int; vpage : int }

(** [ample_frames cfg] is the default frame count: at least 256 MB
    and 4× the aggregate external-cache capacity. *)
val ample_frames : Pcolor_memsim.Config.t -> int

(** [create ~cfg ~policy ?mem_frames ?pool ?classify ()] builds a kernel
    managing [mem_frames] physical frames (default {!ample_frames}).  Shrink
    [mem_frames] to exercise hint fallback under memory pressure; pass
    [pool] to share one frame pool between several kernels
    (multiprogramming).  [classify] (ignored with [pool]) builds a
    hashed pool whose bins follow the given frame → bin map
    (hash-aware coloring, DESIGN §16). *)
val create :
  cfg:Pcolor_memsim.Config.t ->
  policy:Policy.t ->
  ?mem_frames:int ->
  ?pool:Frame_pool.t ->
  ?classify:(int -> int) ->
  unit ->
  t

(** [set_reclaim t f] installs the out-of-memory recovery path: on pool
    exhaustion [translate] calls [f ~cpu] and retries while it reports
    progress (frames freed > 0). *)
val set_reclaim : t -> (cpu:int -> int) -> unit

(** [translate t ~cpu ~vpage] returns [(frame, kernel_cycles)]:
    [kernel_cycles] is zero for a mapped page and the configured fault
    cost when allocation happened.  Raises {!Out_of_frames} when the
    pool is exhausted and reclaim (if any) frees nothing. *)
val translate : t -> cpu:int -> vpage:int -> int * int

(** [recolor t ~vpage ~preferred] remaps a page to a frame of a
    different color, returning [(old_frame, new_frame)]; [None] when
    unmapped, exhausted, or the color would not change.  The caller
    charges copy/TLB costs and invalidates stale cache lines. *)
val recolor : t -> vpage:int -> preferred:int -> (int * int) option

(** [evict t ~vpage] tears down a mapping and releases its frame back
    to the pool, returning the frame — the reclaim path's teardown.
    The caller must first invalidate TLB entries and cached lines. *)
val evict : t -> vpage:int -> int option

(** [pool t] / [page_table t] expose internals for inspection and
    tests. *)
val pool : t -> Frame_pool.t

val page_table : t -> Page_table.t

(** [faults t] counts page faults taken. *)
val faults : t -> int

(** [honored t] / [hint_fallbacks t]: this kernel's allocations that
    did / did not receive the preferred color.  With a shared pool they
    partition the pool's own counters per address space. *)
val honored : t -> int

val hint_fallbacks : t -> int

(** [color_histogram t] is frames granted per color. *)
val color_histogram : t -> int array

(** [publish_metrics ?pool_stats t reg] registers and sets VM counters
    (faults, hint honor/fallback, frames granted) and the per-color
    free-list depth histogram in [reg] — once per run, off the fault
    path.  Pass [~pool_stats:false] (default true) for all but one of
    several kernels sharing a pool. *)
val publish_metrics : ?pool_stats:bool -> t -> Pcolor_obs.Metrics.t -> unit

(** [color_of_vpage t vpage] is the cache color the page landed on, if
    mapped — the ground truth CDPC tries to control. *)
val color_of_vpage : t -> int -> int option
