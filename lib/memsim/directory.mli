(** Line-granularity coherence directory with word-level write masks:
    invalidation on writes, true/false-sharing classification (Dubois et
    al., §4.1), and dirty-remote sourcing at the higher cache-to-cache
    latency.

    Consulted on every external-cache miss and every prefetch, so the
    per-line state (valid mask, writer, dirty, written-word mask) is
    packed into a single immediate int in a direct-indexed array over
    physical line numbers: with at most {!Config.max_cpus} CPUs and
    128-byte lines it takes 55 bits. *)

type t

(** [create ?n_cpus ~line_size ()] builds an empty directory (8-byte
    words).  [n_cpus] (default {!Config.max_cpus}) bounds recordable CPU
    ids.  Raises [Invalid_argument] when the packed line state would not
    fit an immediate int. *)
val create : ?n_cpus:int -> line_size:int -> unit -> t

(** [inspect t ~cpu ~line ~addr] reports without changing state; [addr]
    selects the word for the true/false test.  The verdict is a packed
    immediate int — decode with {!v_coherent}, {!v_sharing},
    {!v_remote_dirty}. *)
val inspect : t -> cpu:int -> line:int -> addr:int -> int

(** [v_coherent v] — the CPU's copy (if cached) is valid; cleared only
    by a remote write, so a miss with [v_coherent v = false] is
    communication. *)
val v_coherent : int -> bool

(** [v_sharing v] — whether the accessed word was remotely written. *)
val v_sharing : int -> [ `None | `True | `False ]

(** [v_remote_dirty v] — the line must be fetched dirty from another
    CPU. *)
val v_remote_dirty : int -> bool

(** [record_read t ~cpu ~line] notes a coherent copy at [cpu]; returns
    [true] when this read forced a remote dirty copy clean. *)
val record_read : t -> cpu:int -> line:int -> bool

(** [record_write t ~cpu ~line ~addr] makes [cpu] exclusive owner and
    accumulates the written word; returns the bitmask of other CPUs
    invalidated. *)
val record_write : t -> cpu:int -> line:int -> addr:int -> int

(** [writeback t ~cpu ~line] marks the line clean after a victim
    write-back by its owner. *)
val writeback : t -> cpu:int -> line:int -> unit

(** [evict t ~cpu ~line] clears [cpu]'s validity bit (used only by
    explicit frame invalidation; ordinary evictions keep the bit so
    misses classify as replacement, not communication). *)
val evict : t -> cpu:int -> line:int -> unit

(** [lines t] counts tracked lines (test helper). *)
val lines : t -> int
