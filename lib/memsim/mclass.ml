(** Miss taxonomy used throughout the simulator and the reports.

    Replacement misses are split into capacity and conflict using a
    fully-associative shadow cache (see {!Shadow}); communication misses
    are split into true and false sharing at word granularity following
    Dubois et al., the classification the paper itself uses (§4.1). *)

type t =
  | Cold  (** first-ever access to the line by this CPU *)
  | Capacity  (** miss that a fully-associative LRU cache of equal size would also take *)
  | Conflict  (** miss caused purely by limited associativity / indexing *)
  | True_sharing  (** invalidation miss where the accessed word was written remotely *)
  | False_sharing  (** invalidation miss on a line whose accessed word was untouched *)

let all = [ Cold; Capacity; Conflict; True_sharing; False_sharing ]

(** [to_string c] is a short lowercase label. *)
let to_string = function
  | Cold -> "cold"
  | Capacity -> "capacity"
  | Conflict -> "conflict"
  | True_sharing -> "true-sharing"
  | False_sharing -> "false-sharing"

(** [is_replacement c] is true for the capacity/conflict classes the
    paper groups as "replacement misses". *)
let is_replacement = function Capacity | Conflict -> true | _ -> false

(** Per-class counter array indexed by the class's position in {!all}. *)
type counts = int array

let index = function
  | Cold -> 0
  | Capacity -> 1
  | Conflict -> 2
  | True_sharing -> 3
  | False_sharing -> 4

(** [make_counts ()] is a fresh zeroed counter set. *)
let make_counts () : counts = Array.make (List.length all) 0

(** [incr counts c] bumps class [c]. *)
let incr (counts : counts) c = counts.(index c) <- counts.(index c) + 1

(** [get counts c] reads class [c]. *)
let get (counts : counts) c = counts.(index c)

(** [total counts] sums every class. *)
let total (counts : counts) = Array.fold_left ( + ) 0 counts
