(** Integer utilities for power-of-two cache/VM arithmetic. *)

(** [is_pow2 n] is true iff [n] is a positive power of two. *)
val is_pow2 : int -> bool

(** [log2 n] for a positive power of two; raises [Invalid_argument]
    otherwise. *)
val log2 : int -> int

(** [ceil_div a b] is ⌈a/b⌉ for positive [b]. *)
val ceil_div : int -> int -> int

(** [round_up a b] / [round_down a b] round to multiples of [b]. *)
val round_up : int -> int -> int

(** [next_pow2 n] is the smallest power of two ≥ [max 1 n]. *)
val next_pow2 : int -> int

(** [popcount n] counts set bits of a non-negative int. *)
val popcount : int -> int

(** [bits_to_list n] is the ascending set-bit indices (processor-set
    rendering). *)
val bits_to_list : int -> int list
