(** A growable dense bitset over non-negative integers — allocation-free
    membership tests for densely packed index spaces (the simulator's
    physical line numbers). *)

type t

(** [create n] is an empty set pre-sized for indices below [n]. *)
val create : int -> t

(** [mem t i] tests membership; indices beyond the capacity are absent.
    Never allocates. *)
val mem : t -> int -> bool

(** [set t i] inserts [i], growing the buffer geometrically as needed.
    Raises [Invalid_argument] on a negative index. *)
val set : t -> int -> unit
