(** Per-CPU fully-associative LRU TLB.  TLB-refill time is the dominant
    kernel overhead of the workloads (§4.1); prefetches to unmapped
    pages are dropped (§6.2).  Every operation is O(1): the vpages are a
    {!Pcolor_util.Lru}, with the frame of each slot beside it. *)

type t

(** [create ~entries] builds an empty TLB. *)
val create : entries:int -> t

(** [lookup_slot t vpage] is the slot caching [vpage], or [-1] on a
    miss; a hit refreshes recency. *)
val lookup_slot : t -> int -> int

(** [frame_at t slot] is the frame cached in [slot] (a slot returned by
    {!lookup_slot} or {!insert} at the current {!generation}). *)
val frame_at : t -> int -> int

(** [probe_frame t vpage] is the cached frame, or [-1] for "not
    mapped", without recency effects (the prefetch unit's non-faulting
    probe). *)
val probe_frame : t -> int -> int

(** [touch t slot] replays a guaranteed hit on a slot the caller has
    proven still holds its translation (memoized lookup at an unchanged
    {!generation}): recency advances exactly as {!lookup_slot}'s
    would, without probing the table. *)
val touch : t -> int -> unit

(** [generation t] changes whenever the TLB's contents change (insert,
    invalidate, flush); recency refreshes do not count.  A translation
    observed in slot [s] at generation [g] is still in [s] while the
    generation is [g] — the memoization key for lookup fast paths. *)
val generation : t -> int

(** [insert t ~vpage ~frame] installs a translation, evicting LRU when
    full, and returns its slot. *)
val insert : t -> vpage:int -> frame:int -> int

(** [invalidate t vpage] drops one translation (remap/recolor
    shootdown). *)
val invalidate : t -> int -> unit

(** [flush t] empties the TLB. *)
val flush : t -> unit

(** [occupancy t] is the number of live translations. *)
val occupancy : t -> int
