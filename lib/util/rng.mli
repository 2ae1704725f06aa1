(** Deterministic pseudo-random number generation (SplitMix64).  Every
    stochastic decision in the simulator draws from an explicit
    generator so experiments reproduce bit-for-bit from a seed. *)

type t

(** [create seed] returns a fresh generator; equal seeds yield equal
    streams. *)
val create : int -> t

(** [int t bound] is uniform in [\[0, bound)]; raises
    [Invalid_argument] when [bound <= 0]. *)
val int : t -> int -> int

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
