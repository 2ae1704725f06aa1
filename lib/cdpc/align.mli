(** Data-structure layout: alignment and inter-array padding (§5.4).

    Page mapping cannot fix conflicts in the virtually-indexed on-chip
    cache nor false sharing between adjacent structures; SUIF therefore
    aligns every structure to a cache-line boundary and pads between
    co-used structures so their starting addresses differ in the on-chip
    cache. *)

type mode =
  | Natural  (** 8-byte packing, no padding — Figure 9's "unaligned" baseline *)
  | Aligned  (** line-aligned with group-aware line-granular padding *)

(** [layout ~cfg ~mode ~groups arrays] assigns [base] addresses in
    declaration order and returns the end of the data segment.
    [groups] is the summary's co-access relation on array ids. *)
val layout :
  cfg:Pcolor_memsim.Config.t ->
  mode:mode ->
  groups:(int * int) list ->
  Pcolor_comp.Ir.array_decl list ->
  int

(** [check_line_aligned ~cfg arrays] is true when every base sits on an
    external-cache-line boundary. *)
val check_line_aligned : cfg:Pcolor_memsim.Config.t -> Pcolor_comp.Ir.array_decl list -> bool

(** [onchip_start_conflicts ~cfg ~groups arrays] counts grouped pairs
    whose bases map to the same on-chip cache index — §5.4's padding
    drives this toward zero. *)
val onchip_start_conflicts :
  cfg:Pcolor_memsim.Config.t ->
  groups:(int * int) list ->
  Pcolor_comp.Ir.array_decl list ->
  int
