(** Fixed-capacity fully-associative LRU over non-negative int keys,
    every operation O(1) and allocation-free.  Each key lives in one of
    [capacity] slots; callers keep per-slot payloads in their own
    arrays.  A slot returned by {!find} or {!insert} holds its key until
    that key is inserted over, removed or cleared.  This is the TLB and
    the fully-associative shadow cache. *)

type t

(** [create ~capacity] is an empty LRU of [capacity] slots.  Raises
    [Invalid_argument] unless [capacity > 0]. *)
val create : capacity:int -> t

(** [find t key] is the slot holding [key], or [-1], without recency
    effect. *)
val find : t -> int -> int

(** [use t slot] makes the key in [slot] the most recently used. *)
val use : t -> int -> unit

(** [insert t key] puts [key], which must be absent, into a free slot
    or else the least recently used key's slot, makes it the most
    recently used and returns the slot. *)
val insert : t -> int -> int

(** [remove t key] frees [key]'s slot, if it has one, as the next to
    be reused. *)
val remove : t -> int -> unit

(** [clear t] frees every slot. *)
val clear : t -> unit

(** [length t] is the number of keys held; [capacity t] the slots. *)
val length : t -> int

val capacity : t -> int
