(** Per-address-space virtual→physical page map (one table per parallel
    program; per-CPU TLBs cache its entries). *)

type t

(** [create ()] is an empty page table. *)
val create : unit -> t

(** [frame_of t vpage] is the frame backing [vpage], or [-1] when
    unmapped.  Never allocates. *)
val frame_of : t -> int -> int

(** [vpage_of t frame] is the inverse lookup (recoloring daemon,
    reclaimer): the virtual page mapped to [frame], or [-1].  Never
    allocates. *)
val vpage_of : t -> int -> int

(** [mem t vpage] tests mappedness. *)
val mem : t -> int -> bool

(** [map t ~vpage ~frame] installs a mapping; raises
    [Invalid_argument] if [vpage] is already mapped. *)
val map : t -> vpage:int -> frame:int -> unit

(** [unmap t vpage] removes a mapping, returning the frame it held. *)
val unmap : t -> int -> int option

(** [mapped_count t] is the number of live mappings. *)
val mapped_count : t -> int

(** [iter t f] applies [f ~vpage ~frame] to every mapping, in
    unspecified order. *)
val iter : t -> (vpage:int -> frame:int -> unit) -> unit
