(** The compiler's intermediate representation: programs as phases of
    affine loop nests over multidimensional arrays.

    This is the slice of a SUIF-parallelized program that matters to
    CDPC and to the memory-system experiments: which arrays exist, how
    loop nests reference them (affine index expressions), which loops are
    parallel and how their iterations are partitioned, and the phase
    structure of the steady state (§3.2's representative execution
    windows operate on these phases). *)

(** A statically allocated array.  [base] is the virtual byte address,
    assigned by the layout pass ({!Pcolor_cdpc.Align}); [dims] are
    row-major with the innermost (contiguous) dimension last. *)
type array_decl = {
  id : int;
  aname : string;
  elem_size : int; (* bytes per element, typically 8 (double) *)
  dims : int array;
  mutable base : int;
}

(** [elems a] is the total element count of [a]. *)
let elems a = Array.fold_left ( * ) 1 a.dims

(** [bytes a] is the total byte size of [a]. *)
let bytes a = elems a * a.elem_size

(** [make_array ~id ~name ~elem_size ~dims] declares an array with an
    unassigned ([-1]) base address. *)
let make_array ~id ~name ~elem_size ~dims =
  if Array.length dims = 0 || Array.exists (fun d -> d <= 0) dims then
    invalid_arg "Ir.make_array: bad dims";
  if elem_size <= 0 then invalid_arg "Ir.make_array: bad elem_size";
  { id; aname = name; elem_size; dims; base = -1 }

(** An affine array reference inside a loop nest:
    element index = [offset + Σ_l coeffs.(l) * iv.(l)] where [iv.(l)]
    is the value of the loop index at depth [l] (depth 0 outermost).
    Coefficients are in {e elements}.  A 2-D access [A(i, j)] over an
    [n × m] array is [coeffs = [|m; 1|]], [offset = 0]; the stencil
    neighbor [A(i-1, j)] has [offset = -m]. *)
type ref_ = {
  array : array_decl;
  coeffs : int array;
  offset : int;
  is_write : bool;
}

(** [ref_to a ~coeffs ~offset ~write] builds a reference; [coeffs] must
    match the nest depth it is used in (checked by {!check_nest}). *)
let ref_to array ~coeffs ~offset ~write = { array; coeffs; offset; is_write = write }

(** How a nest executes across processors. *)
type loop_kind =
  | Parallel of { policy : Partition.policy; direction : Partition.direction }
      (** depth-0 loop distributed across all CPUs *)
  | Suppressed
      (** parallelizable but too fine-grained to pay off: the master runs
          it alone while slaves idle; counted as suppressed time (§4.1) *)
  | Sequential  (** not parallelizable: master-only, counted as sequential time *)

(** One (perfect) loop nest.  [bounds.(l)] is the trip count at depth
    [l]; every [ref_] fires once per innermost iteration.  [body_instr]
    models non-memory computation per innermost iteration, and
    [extra_onchip_stall] models per-iteration instruction-fetch stall
    from the external cache (used for fpppp, which is bound by
    instruction misses, §4.1).  [tiled] marks nests whose loop tiling
    inhibits prefetch software-pipelining (applu, §6.2). *)
type nest = {
  label : string;
  kind : loop_kind;
  bounds : int array;
  refs : ref_ list;
  body_instr : int;
  extra_onchip_stall : int;
  tiled : bool;
}

(** [make_nest ~label ~kind ~bounds ~refs] with optional cost knobs. *)
let make_nest ?(body_instr = 4) ?(extra_onchip_stall = 0) ?(tiled = false) ~label ~kind ~bounds
    ~refs () =
  { label; kind; bounds; refs; body_instr; extra_onchip_stall; tiled }

(** A phase: a straight-line sequence of nests separated by barriers. *)
type phase = { pname : string; nests : nest list }

(** A whole program.  [steady] lists [(phase_index, occurrences)] —
    turb3d, for instance, alternates four phases occurring 11, 66, 100
    and 120 times in its steady state (§3.2). *)
type program = {
  name : string;
  arrays : array_decl list;
  phases : phase list;
  steady : (int * int) list;
  seq_startup_instr : int; (* initialization section: I/O, first faults *)
}

(** [check_nest ~n_arrays nest] validates coefficient arity and bounds;
    raises [Invalid_argument] with a descriptive message. *)
let check_nest nest =
  let depth = Array.length nest.bounds in
  if depth = 0 then invalid_arg (nest.label ^ ": empty bounds");
  Array.iter (fun b -> if b <= 0 then invalid_arg (nest.label ^ ": nonpositive bound")) nest.bounds;
  List.iter
    (fun r ->
      if Array.length r.coeffs <> depth then
        invalid_arg
          (Printf.sprintf "%s: ref to %s has %d coeffs for depth %d" nest.label r.array.aname
             (Array.length r.coeffs) depth))
    nest.refs

(** [check_program p] validates every nest and the steady-state phase
    indices. *)
let check_program p =
  List.iter (fun ph -> List.iter check_nest ph.nests) p.phases;
  let n = List.length p.phases in
  List.iter
    (fun (i, occ) ->
      if i < 0 || i >= n then invalid_arg (p.name ^ ": steady refers to missing phase");
      if occ <= 0 then invalid_arg (p.name ^ ": nonpositive phase occurrence count"))
    p.steady;
  if p.steady = [] then invalid_arg (p.name ^ ": empty steady state")

(** [min_max_index r ~bounds ~lo0 ~hi0] is the inclusive range of element
    indices reference [r] can produce when the depth-0 index ranges over
    [\[lo0, hi0)] and deeper indices over their full bounds.  Empty
    ranges return [None]. *)
let min_max_index r ~bounds ~lo0 ~hi0 =
  if lo0 >= hi0 then None
  else begin
    let lo = ref r.offset and hi = ref r.offset in
    Array.iteri
      (fun l c ->
        let min_iv, max_iv = if l = 0 then (lo0, hi0 - 1) else (0, bounds.(l) - 1) in
        if c >= 0 then begin
          lo := !lo + (c * min_iv);
          hi := !hi + (c * max_iv)
        end
        else begin
          lo := !lo + (c * max_iv);
          hi := !hi + (c * min_iv)
        end)
      r.coeffs;
    Some (!lo, !hi)
  end

(** [data_set_bytes p] is the summed size of all arrays — the paper's
    Table 1 metric. *)
let data_set_bytes p = List.fold_left (fun acc a -> acc + bytes a) 0 p.arrays
