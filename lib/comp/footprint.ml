(** Per-processor footprint analysis.

    For each (nest, CPU, array reference) the analysis computes the byte
    interval the reference can touch, from the scheduled depth-0 range
    and the affine bounds.  Footprints drive three consumers:

    - the CDPC segment computation (which CPUs touch which address
      ranges, §5.2 step 1);
    - the Figure 3/5 access-pattern plots;
    - density/locality metrics used by the prefetcher and by CDPC's
      applicability test (su2cor's non-contiguous structures, §6.1).

    Intervals are over-approximations for strided references (gaps inside
    a unit are included); [unit_density] quantifies exactly that gap. *)

type interval = { lo : int; hi : int } (* byte addresses, half-open *)

(** [norm intervals] sorts and coalesces overlapping/adjacent intervals. *)
let norm intervals =
  let sorted = List.sort (fun a b -> compare a.lo b.lo) intervals in
  let rec merge = function
    | a :: b :: rest when b.lo <= a.hi -> merge ({ lo = a.lo; hi = max a.hi b.hi } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge (List.filter (fun i -> i.hi > i.lo) sorted)

(** [total_bytes intervals] sums the lengths of normalized intervals. *)
let total_bytes intervals = List.fold_left (fun acc i -> acc + (i.hi - i.lo)) 0 (norm intervals)

(** [ref_interval r ~bounds ~lo0 ~hi0] is the byte interval touched by
    reference [r] when depth-0 spans [\[lo0,hi0)]; [None] when empty or
    when the array has no assigned base address. *)
let ref_interval (r : Ir.ref_) ~bounds ~lo0 ~hi0 =
  if r.array.base < 0 then invalid_arg "Footprint.ref_interval: array base unassigned";
  match Ir.min_max_index r ~bounds ~lo0 ~hi0 with
  | None -> None
  | Some (lo_e, hi_e) ->
    Some
      {
        lo = r.array.base + (lo_e * r.array.elem_size);
        hi = r.array.base + ((hi_e + 1) * r.array.elem_size);
      }

(** [nest_cpu ?array_id nest ~n_cpus ~cpu] is the normalized byte
    intervals CPU [cpu] touches executing its share of [nest], counting
    only references to array [array_id] when given. *)
let nest_cpu ?array_id (nest : Ir.nest) ~n_cpus ~cpu =
  let lo0, hi0 = Schedule.range nest ~n_cpus ~cpu in
  let wanted (r : Ir.ref_) = Option.fold array_id ~none:true ~some:(Int.equal r.array.id) in
  List.filter_map
    (fun r -> if wanted r then ref_interval r ~bounds:nest.bounds ~lo0 ~hi0 else None)
    nest.refs
  |> norm

(** [program_cpu ?array_id p ~n_cpus ~cpu] unions footprints over every
    nest of every steady-state phase (restricted to one array when
    [array_id] is given). *)
let program_cpu ?array_id (p : Ir.program) ~n_cpus ~cpu =
  let phases = Array.of_list p.phases in
  List.concat_map
    (fun (idx, _) ->
      List.concat_map (fun nest -> nest_cpu ?array_id nest ~n_cpus ~cpu) phases.(idx).Ir.nests)
    p.steady
  |> norm

(** [pages_of intervals ~page_size] is the sorted list of virtual page
    numbers the intervals overlap. *)
let pages_of intervals ~page_size =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun i ->
      let p0 = i.lo / page_size and p1 = (i.hi - 1) / page_size in
      for p = p0 to p1 do
        Hashtbl.replace tbl p ()
      done)
    (norm intervals);
  Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort compare

(** [touch_points p ~n_cpus ~page_size] is the Figure 3 data: every
    [(vpage, cpu)] pair touched during the steady state. *)
let touch_points (p : Ir.program) ~n_cpus ~page_size =
  List.concat_map
    (fun cpu ->
      List.map (fun pg -> (pg, cpu)) (pages_of (program_cpu p ~n_cpus ~cpu) ~page_size))
    (List.init n_cpus Fun.id)

(** [inner_span nest r] is the number of elements reference [r] spans
    while depth-0 is fixed: [Σ_(l≥1) |coeff_l|·(bound_l − 1) + 1]. *)
let inner_span (nest : Ir.nest) (r : Ir.ref_) =
  let s = ref 1 in
  Array.iteri (fun l c -> if l > 0 then s := !s + (abs c * (nest.bounds.(l) - 1))) r.coeffs;
  !s

(** [unit_density nest r] is the fraction of a distributed unit (the
    [|coeffs.(0)|]-element block advanced per depth-0 iteration) the
    reference actually covers — 1.0 is fully dense, small values mean a
    strided access whose per-CPU pages are shared with other CPUs.
    References not distributed by depth-0 ([coeffs.(0) = 0]) report 1.0. *)
let unit_density (nest : Ir.nest) (r : Ir.ref_) =
  let c0 = abs r.coeffs.(0) in
  if c0 = 0 then 1.0 else Float.min 1.0 (float_of_int (inner_span nest r) /. float_of_int c0)

(** [page_dense nest r ~page_size] decides whether CDPC should color
    this reference's array based on this access: the per-unit gaps must
    be smaller than a page, otherwise per-CPU page ownership is not
    well-defined (su2cor's problematic structures).  Dense or
    undistributed references qualify trivially. *)
let page_dense (nest : Ir.nest) (r : Ir.ref_) ~page_size =
  let c0 = abs r.coeffs.(0) in
  if c0 = 0 then true
  else
    let gap_elems = c0 - inner_span nest r in
    gap_elems * r.array.elem_size < page_size
