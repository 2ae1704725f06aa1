(** The compiler's intermediate representation: programs as phases of
    affine loop nests over multidimensional arrays — the slice of a
    SUIF-parallelized program that CDPC and the memory-system
    experiments consume. *)

(** A statically allocated array; [base] is assigned by the layout pass
    ({!Pcolor_cdpc.Align}), [-1] until then. *)
type array_decl = {
  id : int;
  aname : string;
  elem_size : int;  (** bytes per element, typically 8 *)
  dims : int array;  (** row-major, innermost last *)
  mutable base : int;
}

(** [elems a] / [bytes a] are total element and byte counts. *)
val elems : array_decl -> int

val bytes : array_decl -> int

(** [make_array ~id ~name ~elem_size ~dims] declares an array with an
    unassigned base.  Raises [Invalid_argument] on bad dims. *)
val make_array : id:int -> name:string -> elem_size:int -> dims:int array -> array_decl

(** An affine reference: element index =
    [offset + Σ_l coeffs.(l) · iv.(l)], coefficients in elements. *)
type ref_ = { array : array_decl; coeffs : int array; offset : int; is_write : bool }

(** [ref_to array ~coeffs ~offset ~write] builds a reference. *)
val ref_to : array_decl -> coeffs:int array -> offset:int -> write:bool -> ref_

(** How a nest executes across processors. *)
type loop_kind =
  | Parallel of { policy : Partition.policy; direction : Partition.direction }
      (** depth-0 loop distributed across all CPUs *)
  | Suppressed
      (** parallelizable but too fine-grained: master-only, slaves idle
          counted as suppressed time (§4.1) *)
  | Sequential  (** not parallelizable: master-only, sequential time *)

(** One perfect loop nest; every reference fires once per innermost
    iteration.  [extra_onchip_stall] models instruction-fetch stall
    (fpppp); [tiled] marks prefetch-hostile tiling (applu, §6.2). *)
type nest = {
  label : string;
  kind : loop_kind;
  bounds : int array;
  refs : ref_ list;
  body_instr : int;
  extra_onchip_stall : int;
  tiled : bool;
}

(** [make_nest ~label ~kind ~bounds ~refs ()] with optional cost knobs
    ([body_instr] defaults to 4). *)
val make_nest :
  ?body_instr:int ->
  ?extra_onchip_stall:int ->
  ?tiled:bool ->
  label:string ->
  kind:loop_kind ->
  bounds:int array ->
  refs:ref_ list ->
  unit ->
  nest

(** A phase: nests separated by barriers. *)
type phase = { pname : string; nests : nest list }

(** A whole program; [steady] lists [(phase index, occurrences)] in the
    steady state (§3.2). *)
type program = {
  name : string;
  arrays : array_decl list;
  phases : phase list;
  steady : (int * int) list;
  seq_startup_instr : int;
}

(** [check_nest n] / [check_program p] validate arity, bounds and
    steady-state indices; raise [Invalid_argument]. *)
val check_nest : nest -> unit

val check_program : program -> unit

(** [min_max_index r ~bounds ~lo0 ~hi0] is the inclusive element-index
    range the reference can produce when depth-0 spans [\[lo0, hi0)];
    [None] when empty. *)
val min_max_index : ref_ -> bounds:int array -> lo0:int -> hi0:int -> (int * int) option

(** [data_set_bytes p] sums all array sizes (Table 1's metric). *)
val data_set_bytes : program -> int
