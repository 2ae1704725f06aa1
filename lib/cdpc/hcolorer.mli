(** Hash-aware coloring (DESIGN §16): the §5.2 colorer composed with
    the inverted slice hash.  Hint positions are kept verbatim as *bin*
    targets; the inversion happens at the allocator, which classifies
    frames into true (slice, set-group) bins via
    {!Pcolor_memsim.Ahash.bin_of}.  Under [Identity] this coincides
    with plain CDPC bit for bit. *)

(** [classify cfg] is the frame → true-bin map of [cfg]'s resolved
    slice hash (the {!Pcolor_vm.Frame_pool.create} [classify]
    argument).  Bins number [n_colors]. *)
val classify : Pcolor_memsim.Config.t -> int -> int

(** [inversion_name cfg] names the inversion for decision-log
    [chosen_by] entries, e.g. ["hash-inverse(sandybridge)"]. *)
val inversion_name : Pcolor_memsim.Config.t -> string
