(** Set-associative, write-back, write-allocate cache with LRU
    replacement.  Used for the virtually-indexed on-chip cache (pass
    virtual addresses) and the physically-indexed external cache (pass
    physical addresses).  The hot path is allocation-free. *)

type t

(** [create geom] builds an empty cache. *)
val create : Config.cache_geom -> t

(** [line_of t addr] is the line number containing byte [addr]. *)
val line_of : t -> int -> int

(** [n_sets t] is the set count. *)
val n_sets : t -> int

(** [set_of_line t line] is the set a line number indexes into. *)
val set_of_line : t -> int -> int

(** [access t ~addr ~write] simulates one reference (write-allocate;
    LRU victim reported for write-back modeling).  The result is a
    packed immediate int — bit 0 hit, bit 1 dirty flag ([was_dirty] on
    a hit, [evicted_dirty] on a miss), bits 2+ victim line + 1 on a
    miss — so the per-reference path never heap-allocates.  Decode with
    {!res_hit}, {!res_dirty} and {!res_victim}. *)
val access : t -> addr:int -> write:bool -> int

(** [res_hit r] is true when the packed result [r] was a hit. *)
val res_hit : int -> bool

(** [res_dirty r] is the result's dirty flag: the line's dirty state
    before the access on a hit, the victim's dirty state on a miss. *)
val res_dirty : int -> bool

(** [res_victim r] is the victim's line number on a miss, or [-1] when
    the way was empty (meaningless on a hit). *)
val res_victim : int -> int

(** [contains t addr] is a non-intrusive residency probe. *)
val contains : t -> int -> bool

(** [probe t addr] is a non-intrusive residency + dirty probe: bit 0
    resident, bit 1 dirty (decode with {!res_hit}/{!res_dirty}).  No
    LRU update, no statistics — safe on the hot path between accesses. *)
val probe : t -> addr:int -> int

(** [invalidate t addr] drops the line if present, whatever its dirty
    state. *)
val invalidate : t -> int -> unit

(** [set_dirty_if_present t addr] marks the line dirty when resident
    (absent lines are left alone). *)
val set_dirty_if_present : t -> int -> unit

(** [clean t addr] clears the line's dirty bit if resident. *)
val clean : t -> int -> unit

(** [flush t] empties the cache (statistics preserved). *)
val flush : t -> unit

(** [hits t] / [misses t] are cumulative counters. *)
val hits : t -> int

val misses : t -> int

(** [resident_lines t] lists cached line numbers (test helper). *)
val resident_lines : t -> int list
