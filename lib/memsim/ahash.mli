(** Slice-index address hash for the hashed/sliced external cache
    (DESIGN §16): each slice-index bit is the XOR-parity of the
    physical frame number against one mask row, i.e. the hash is a
    GF(2) bit matrix over frame bits.  With [n_colors] colors and
    [n_slices] slices, a frame's low [group_bits] bits pick its group
    within a slice and the hash picks the slice; the true conflict bin
    is [slice * groups + frame mod groups].  [Identity] reduces to the
    classic [frame mod n_colors] color. *)

type spec =
  | Identity  (** slice = the frame bits just above the group bits *)
  | Xor_fold  (** each slice bit XORs three frame bits, stride [n_slices] *)
  | Sandybridge  (** the published Sandy-Bridge-like mask pair, re-based *)
  | Masks of int array  (** explicit mask rows over frame bits *)

type t

(** [spec_to_string] / [spec_of_string] name specs for the CLI
    ("identity", "xor-fold", "sandybridge", "masks:0x..,.."). *)
val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result

(** [resolve ~spec ~slice_bits ~group_bits] materializes the hash for a
    concrete geometry.  Raises [Invalid_argument] when a mask row is
    zero, touches the group bits, or the rows are linearly dependent
    over GF(2). *)
val resolve : spec -> slice_bits:int -> group_bits:int -> t

(** Accessors: the spec's CLI name, a copy of the mask rows, and the
    resolved geometry. *)
val name : t -> string

val masks : t -> int array

val group_bits : t -> int

val n_slices : t -> int

val groups : t -> int

(** [slice_of t frame] is the slice index of a physical frame
    (allocation-free; one constant-time parity per slice bit). *)
val slice_of : t -> int -> int

(** [bin_of t frame] is the true conflict bin — slice in the high bits,
    group in the low bits; bins number [n_slices * groups = n_colors].
    Under [Identity] this equals [frame mod n_colors]. *)
val bin_of : t -> int -> int

(** [rank rows] is the GF(2) rank of a mask row set. *)
val rank : int array -> int

(** [canonical rows] is the unique reduced row-echelon form of the row
    space (pivot columns lowest-bit-first, rows in pivot order).  Two
    full-rank hashes induce the same frame partition iff their
    canonical forms are equal. *)
val canonical : int array -> int array

(** [same_partition a b] — same geometry and same canonical row space. *)
val same_partition : t -> t -> bool

(** [render_matrix ~masks ~group_bits] draws mask rows as frame-bit tap
    lists ([pcolor probe] output). *)
val render_matrix : masks:int array -> group_bits:int -> string
