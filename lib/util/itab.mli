(** Allocation-free open-addressing int→int hash table (linear probing,
    power-of-two capacity, backward-shift deletion).  Keys must be
    non-negative; probes never allocate — [find] returns a
    caller-supplied sentinel instead of an [option].
    Deterministic: fixed multiplicative hash, never seeded. *)

type t

(** [create ?capacity ()] is an empty table pre-sized for [capacity]
    bindings (rounded up to a power of two, minimum 8). *)
val create : ?capacity:int -> unit -> t

(** [length t] is the number of bindings. *)
val length : t -> int

(** [capacity t] is the current slot count (tests/benchmarks). *)
val capacity : t -> int

(** [find t key ~default] is [key]'s value, or [default] when absent.
    Never allocates.  Raises [Invalid_argument] on a negative key. *)
val find : t -> int -> default:int -> int

(** [mem t key] tests whether [key] is bound. *)
val mem : t -> int -> bool

(** [set t key v] binds [key] to [v], replacing any previous binding. *)
val set : t -> int -> int -> unit

(** [add t key delta] is a single-probe upsert:
    [t(key) <- delta + (t(key) or 0)]. *)
val add : t -> int -> int -> unit

(** [remove t key] drops the binding if present (backward-shift
    compaction: no tombstones, probe chains stay tight). *)
val remove : t -> int -> unit

(** [reset t] removes every binding, keeping the allocated arrays. *)
val reset : t -> unit

(** [iter f t] applies [f key value] to every binding (slot order). *)
val iter : (int -> int -> unit) -> t -> unit

(** [fold f t init] folds over bindings in slot order. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
