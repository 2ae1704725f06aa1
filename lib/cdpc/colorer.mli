(** Step 5 and the top-level CDPC hint generator (§5.2): combine the
    compiler's access-pattern summary with the machine parameters and
    produce a preferred color for every virtual page.

    The two objectives: map each processor's data contiguously in the
    physical address space (eliminating all conflicts whenever a
    processor's data fits its cache), and give different start colors to
    arrays used together. *)

type placed_segment = {
  seg : Segment.t;
  first_page : int;  (** first vpage of the segment *)
  n_pages : int;  (** pages owned by this segment (boundary pages deduped) *)
  pos : int;  (** position of the segment's page run in the global order *)
  rotation : int;
  set_rank : int;  (** rank of the segment's CPU set in the step-2 order; -1 = step ablated *)
  seg_rank : int;  (** rank within its set's step-3 segment order *)
  positions : int array;
      (** [positions.(j)] is page [first_page + j]'s position in the
          final page order (step 4's rotation applied); its hint color
          is that position modulo the color count *)
}

type info = {
  placed : placed_segment list;  (** in final order *)
  total_pages : int;
  excluded : Pcolor_comp.Ir.array_decl list;
  n_colors : int;
  page_size : int;
  set_order : int list;  (** step 2's ordered CPU-set masks; [] = step ablated *)
  ablation : ablation;  (** which steps actually ran *)
}

(** Ablation switches: disable individual algorithm steps to measure
    their contribution.  [set_ordering] is step 2 (off = plain
    virtual-address order, no clustering at all), [segment_ordering]
    step 3, [rotation] step 4. *)
and ablation = { set_ordering : bool; segment_ordering : bool; rotation : bool }

(** [full_algorithm] enables every step. *)
val full_algorithm : ablation

(** [generate_ablated ~ablation ~cfg ~summary ~program ~n_cpus] runs
    the (possibly ablated) algorithm.  Array bases must be assigned
    (run {!Align.layout} first).  It is the one place the final page
    order is derived: every reader below, the decision log and the
    cdpc-touch realization read the placed segments' [positions]. *)
val generate_ablated :
  ablation:ablation ->
  cfg:Pcolor_memsim.Config.t ->
  summary:Pcolor_comp.Summary.t ->
  program:Pcolor_comp.Ir.program ->
  n_cpus:int ->
  Pcolor_vm.Hints.t * info

(** [generate ~cfg ~summary ~program ~n_cpus] is the normal, full
    five-step entry point. *)
val generate :
  cfg:Pcolor_memsim.Config.t ->
  summary:Pcolor_comp.Summary.t ->
  program:Pcolor_comp.Ir.program ->
  n_cpus:int ->
  Pcolor_vm.Hints.t * info

(** [order info] is the final page order as an array: the vpage at
    each position [0 .. total_pages - 1].  Touching pages in this order
    under bin hopping realizes the hint colors (§5.3). *)
val order : info -> int array

(** [coloring_order_points info] is the Figure 5 data: every
    (position, cpu) pair in coloring order. *)
val coloring_order_points : info -> (int * int) list

(** [per_cpu_color_spread info ~cpu] is
    [(pages, distinct_colors, max_pages_on_one_color)] — objective 1's
    evenness measure. *)
val per_cpu_color_spread : info -> cpu:int -> int * int * int

(** [pp_placement fmt info] dumps the placement. *)
val pp_placement : Format.formatter -> info -> unit
