(** Int→int map for keys that are dense in practice (physical line
    numbers, which frames drawn from a compact pool keep small), for
    state that really is per memory line — the coherence directory.  Its
    memory grows with the largest key, so per-CPU state sized by a cache
    should not use it.  A direct-indexed array grown by doubling, with
    keys at or above {!direct_limit} spilled to an {!Itab} so arbitrary
    keys stay correct without unbounded memory.  Keys and values must
    be non-negative (a negative key raises [Invalid_argument], as in
    {!Itab}); [-1] reads as "absent".  Never allocates except when the
    array or the spill table grows. *)

type t

(** Keys below this live in the array (at most 4 M entries, 32 MB);
    the rest spill. *)
val direct_limit : int

(** [create ~initial] is an empty map whose array starts with
    [initial] entries (at least 1, at most {!direct_limit}). *)
val create : initial:int -> t

(** [find t key] is [key]'s value, or [-1] when absent.  No growth. *)
val find : t -> int -> int

(** [set t key v] binds [key] to [v] ([v >= 0]), growing the array
    when [key] is past its end. *)
val set : t -> int -> int -> unit

(** [length t] is the number of bindings. *)
val length : t -> int
