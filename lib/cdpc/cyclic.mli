(** Step 4 of the CDPC algorithm: cyclic page assignment within a
    segment (§5.2).

    A rotation start point is chosen per segment so that the start
    colors of conflicting segments — co-used arrays with intersecting
    processor sets that partially overlap in the cache — are spaced
    apart (Figure 4c). *)

type seg_info = {
  pos : int;  (** first position (page-ordering index) of the segment *)
  len : int;  (** pages *)
  cpus : int;  (** processor-set bitmask *)
  arr : int;  (** array id, for the group-access test *)
}

(** [circular_overlap ~c a la b lb] tests whether the circular intervals
    [[a, a+la)] and [[b, b+lb)] intersect modulo [c]. *)
val circular_overlap : c:int -> int -> int -> int -> int -> bool

(** [circular_distance ~c a b] is the circular distance between colors. *)
val circular_distance : c:int -> int -> int -> int

(** [start_color ~n_colors seg r] is the color of the segment's first
    virtual page under rotation [r]. *)
val start_color : n_colors:int -> seg_info -> int -> int

(** [rotations ~n_colors ~grouped segs] chooses every segment's
    rotation, processing segments in order and maximizing the minimum
    circular distance to already-placed conflicting segments' start
    colors; unconflicted segments keep rotation 0. *)
val rotations : n_colors:int -> grouped:(int -> int -> bool) -> seg_info array -> int array

(** [position ~seg ~rotation j] is the global position of the segment's
    [j]-th page under the rotation.  Raises [Invalid_argument] when [j]
    is outside the segment. *)
val position : seg:seg_info -> rotation:int -> int -> int
