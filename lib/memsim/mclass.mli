(** Miss taxonomy: replacement misses split into capacity/conflict via a
    fully-associative shadow cache; communication misses split into
    true/false sharing at word granularity (Dubois et al., §4.1). *)

type t = Cold | Capacity | Conflict | True_sharing | False_sharing

(** [all] lists every class in display order. *)
val all : t list

(** [to_string c] is a short lowercase label. *)
val to_string : t -> string

(** [is_replacement c] is true for capacity/conflict (the paper's
    "replacement misses"). *)
val is_replacement : t -> bool

(** Per-class counters, indexed by {!index}. *)
type counts = int array

(** [index c] is the class's position in {!all}. *)
val index : t -> int

(** [make_counts ()] is a fresh zeroed counter set. *)
val make_counts : unit -> counts

(** [incr counts c] bumps class [c]. *)
val incr : counts -> t -> unit

(** [get counts c] reads class [c]. *)
val get : counts -> t -> int

(** [total counts] sums every class. *)
val total : counts -> int
