(** Builders shared by the ten benchmark kernels.

    Each kernel module constructs a {!Pcolor_comp.Ir.program} whose loop
    nests reproduce the paper-documented personality of the SPEC95fp
    benchmark: data-set size (Table 1), phase structure, partitioning,
    boundary communication, and parallelism properties.  A [scale]
    divisor shrinks the data set (dimensions shrink as the square or cube
    root) so full experiment sweeps stay tractable; machine caches are
    scaled by the same factor (see {!Pcolor_memsim.Config.scale}), which
    preserves every dataset-to-cache crossover in the paper. *)

module Ir = Pcolor_comp.Ir

type ctx = { mutable next : int; mutable arrays : Ir.array_decl list }

(** [ctx ()] starts a fresh array namespace for one program. *)
let ctx () = { next = 0; arrays = [] }

let register c a =
  c.arrays <- a :: c.arrays;
  a

(** [arr1 c name n] declares a 1-D array of [n] doubles. *)
let arr1 c name n =
  let a = Ir.make_array ~id:c.next ~name ~elem_size:8 ~dims:[| n |] in
  c.next <- c.next + 1;
  register c a

(** [arr2 c name ~rows ~cols] declares a row-major 2-D array. *)
let arr2 c name ~rows ~cols =
  let a = Ir.make_array ~id:c.next ~name ~elem_size:8 ~dims:[| rows; cols |] in
  c.next <- c.next + 1;
  register c a

(** [arr3 c name ~d0 ~d1 ~d2] declares a 3-D array. *)
let arr3 c name ~d0 ~d1 ~d2 =
  let a = Ir.make_array ~id:c.next ~name ~elem_size:8 ~dims:[| d0; d1; d2 |] in
  c.next <- c.next + 1;
  register c a

(** [arrays c] lists declarations in declaration order. *)
let arrays c = List.rev c.arrays

(** [scales] are the data-set scale divisors every kernel supports;
    [scales_doc] says so in words, for error messages. *)
let scales = [ 1; 4; 16; 64; 256 ]

let scales_doc = "scale must be 1, 4, 16, 64 or 256"

(** [dim2 ~base ~scale] scales a linear 2-D dimension.  [scale] divides
    the {e data-set size} and must be a square (1, 4, 16, 64, 256) so the
    side shrinks by an integer factor.  SPEC95fp grids are 2^k or 2^k+1
    on a side (tomcatv/swim are 513²), which makes array sizes all-but
    multiples of the external cache — the geometry behind Figure 3's
    color-phase collisions; dividing by √scale preserves it exactly
    ([513 → 257 → 129 → 65 → 33]). *)
let dim2 ~base ~scale =
  let d =
    match scale with
    | 1 -> 1
    | 4 -> 2
    | 16 -> 4
    | 64 -> 8
    | 256 -> 16
    | _ -> invalid_arg ("Gen.dim2: " ^ scales_doc)
  in
  if base mod 2 = 1 then ((base - 1) / d) + 1 else base / d

(** [side2 ~n_arrays ~mb ~scale] is the square side length (a multiple
    of 8, at least 32) giving [n_arrays] 2-D double arrays a combined
    size of [mb] MB divided by [scale]. *)
let side2 ~n_arrays ~mb ~scale =
  let bytes = mb *. 1048576.0 /. float_of_int scale in
  let n = int_of_float (sqrt (bytes /. (float_of_int n_arrays *. 8.0))) in
  max 32 (n / 8 * 8)

(** [side3 ~n_arrays ~mb ~scale] is the cubic analogue (multiple of 4,
    at least 16). *)
let side3 ~n_arrays ~mb ~scale =
  let bytes = mb *. 1048576.0 /. float_of_int scale in
  let n = int_of_float (Float.cbrt (bytes /. (float_of_int n_arrays *. 8.0))) in
  max 16 (n / 4 * 4)

(** {2 Reference builders for depth-2 nests over (i, j)} *)

(** [interior2 a ~di ~dj ~write] references [a(i+1+di, j+1+dj)] in a
    nest whose bounds are [(rows-2, cols-2)] — the standard interior
    stencil form, guaranteed in range for [|di|,|dj| ≤ 1]. *)
let interior2 (a : Ir.array_decl) ~di ~dj ~write =
  let cols = a.dims.(1) in
  Ir.ref_to a ~coeffs:[| cols; 1 |] ~offset:(((1 + di) * cols) + 1 + dj) ~write

(** [full2 a ~write] references [a(i, j)] over the full index space. *)
let full2 (a : Ir.array_decl) ~write = Ir.ref_to a ~coeffs:[| a.dims.(1); 1 |] ~offset:0 ~write

(** {2 Reference builders for depth-3 nests over (i, j, k)} *)

(** [interior3 a ~di ~dj ~dk ~write] references
    [a(i+1+di, j+1+dj, k+1+dk)] for bounds [(d0-2, d1-2, d2-2)]. *)
let interior3 (a : Ir.array_decl) ~di ~dj ~dk ~write =
  let d1 = a.dims.(1) and d2 = a.dims.(2) in
  Ir.ref_to a
    ~coeffs:[| d1 * d2; d2; 1 |]
    ~offset:(((1 + di) * d1 * d2) + ((1 + dj) * d2) + 1 + dk)
    ~write

(** [full3 a ~write] references [a(i, j, k)] over the full index space. *)
let full3 (a : Ir.array_decl) ~write =
  Ir.ref_to a ~coeffs:[| a.dims.(1) * a.dims.(2); a.dims.(2); 1 |] ~offset:0 ~write

(** [parallel_even] / [parallel_blocked] / [parallel_reverse] are the
    common nest kinds. *)
let parallel_even = Ir.Parallel { policy = Even; direction = Forward }

let parallel_blocked = Ir.Parallel { policy = Blocked; direction = Forward }

let parallel_reverse = Ir.Parallel { policy = Even; direction = Reverse }

(** [program c ~name ~phases ~steady ?startup ()] assembles and
    validates the program. *)
let program c ~name ~phases ~steady ?(startup = 50_000) () =
  let p =
    { Ir.name; arrays = arrays c; phases; steady; seq_startup_instr = startup }
  in
  Ir.check_program p;
  p
