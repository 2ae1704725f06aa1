(** Step 5 and the top-level CDPC hint generator (§5.2).

    The run-time library combines the compiler's access-pattern summary
    with the machine parameters (processor count, cache configuration,
    page size) and produces a preferred color for each virtual page:

    + compute the maximal uniform access segments ({!Segment});
    + order the uniform access sets ({!Order.order_sets});
    + order the segments within each set ({!Order.order_segments});
    + rotate the pages within each segment ({!Cyclic});
    + walk the final page order and assign colors round-robin.

    The two objectives (§5.2): map each processor's data as contiguously
    as possible in the {e physical} address space — eliminating all
    conflicts whenever a processor's data fits in its cache — and give
    different start colors to arrays used together. *)

type placed_segment = {
  seg : Segment.t;
  first_page : int; (* first vpage of the segment *)
  n_pages : int; (* pages owned by this segment (boundary pages deduped) *)
  pos : int; (* position of the segment's page run in the global order *)
  rotation : int;
  set_rank : int; (* rank of the segment's CPU set in the step-2 order; -1 = step ablated *)
  seg_rank : int; (* rank within its set's step-3 segment order *)
  positions : int array; (* coloring-order position of page [first_page + j] *)
}

type info = {
  placed : placed_segment list; (* in final order *)
  total_pages : int;
  excluded : Pcolor_comp.Ir.array_decl list;
  n_colors : int;
  page_size : int;
  set_order : int list; (* step 2's ordered CPU-set masks; [] = step ablated *)
  ablation : ablation; (* which steps actually ran — the audit trail needs it *)
}

and ablation = { set_ordering : bool; segment_ordering : bool; rotation : bool }

(** Ablation switches ([ablation], declared with [info] above): disable
    individual algorithm steps to measure their contribution (all on by
    default).  [set_ordering] is step 2, [segment_ordering] step 3,
    [rotation] step 4; with all three off the hints simply lay accessed
    pages out in virtual-address order. *)
let full_algorithm = { set_ordering = true; segment_ordering = true; rotation = true }

(** [generate_ablated ~ablation ~cfg ~summary ~program ~n_cpus] runs
    the five steps (minus the ablated ones) and returns the hint table
    plus diagnostic placement info.  Array bases must be assigned (run
    {!Align.layout} first). *)
let generate_ablated ~ablation ~(cfg : Pcolor_memsim.Config.t)
    ~(summary : Pcolor_comp.Summary.t) ~(program : Pcolor_comp.Ir.program) ~n_cpus =
  let n_colors = Pcolor_memsim.Config.n_colors cfg in
  let page_size = cfg.page_size in
  (* Step 1 *)
  let { Segment.segments; excluded } =
    Segment.compute ~summary ~program ~n_cpus
  in
  let segments = Segment.coalesce segments in
  let grouped = Pcolor_comp.Summary.grouped summary in
  (* Steps 2 and 3, carrying each segment's decision provenance: its
     CPU set's rank in the step-2 order and its rank within that set's
     step-3 segment order (the audit trail the run artifact records).
     With set ordering ablated the layout degrades to plain
     virtual-address order (no per-processor clustering at all). *)
  let ranked_order, set_order =
    if not ablation.set_ordering then (List.mapi (fun i s -> (s, -1, i)) segments, [])
    else begin
      let masks = List.map (fun s -> s.Segment.cpus) segments in
      let ordered_masks = Order.order_sets masks in
      let by_mask m = List.filter (fun s -> s.Segment.cpus = m) segments in
      let order_within segs =
        if ablation.segment_ordering then Order.order_segments ~grouped segs else segs
      in
      ( List.concat
          (List.mapi
             (fun mi m -> List.mapi (fun si s -> (s, mi, si)) (order_within (by_mask m)))
             ordered_masks),
        ordered_masks )
    end
  in
  (* Page ownership: a page shared by two segments (arrays abutting
     mid-page) belongs to the first segment that claims it. *)
  let claimed = Hashtbl.create 4096 in
  let provisional = ref [] in
  let pos = ref 0 in
  List.iter
    (fun ((s : Segment.t), set_rank, seg_rank) ->
      let p0, p1 = Segment.pages s ~page_size in
      let unclaimed p = not (Hashtbl.mem claimed p) in
      let pages = List.filter unclaimed (List.init (p1 - p0 + 1) (( + ) p0)) in
      List.iter (fun p -> Hashtbl.replace claimed p ()) pages;
      match pages with
      | [] -> ()
      | first_page :: _ ->
        let len = List.length pages in
        let si = { Cyclic.pos = !pos; len; cpus = s.cpus; arr = s.array.Pcolor_comp.Ir.id } in
        provisional := (s, set_rank, seg_rank, first_page, si) :: !provisional;
        pos := !pos + len)
    ranked_order;
  let provisional = List.rev !provisional in
  let total_pages = !pos in
  (* Step 4 *)
  let seg_infos = Array.of_list (List.map (fun (_, _, _, _, si) -> si) provisional) in
  let rots =
    if ablation.rotation then Cyclic.rotations ~n_colors ~grouped seg_infos
    else Array.make (Array.length seg_infos) 0
  in
  (* Step 5: the final page order, computed once; each page's color is
     its position modulo the color count (round-robin). *)
  let placed =
    List.mapi
      (fun i (seg, set_rank, seg_rank, first_page, (si : Cyclic.seg_info)) ->
        let rotation = rots.(i) in
        let positions = Array.init si.len (Cyclic.position ~seg:si ~rotation) in
        { seg; first_page; n_pages = si.len; pos = si.pos; rotation; set_rank; seg_rank; positions })
      provisional
  in
  let hints = Pcolor_vm.Hints.create ~n_colors in
  List.iter
    (fun ps ->
      Array.iteri
        (fun j position ->
          Pcolor_vm.Hints.set hints ~vpage:(ps.first_page + j) ~color:(position mod n_colors))
        ps.positions)
    placed;
  (hints, { placed; total_pages; excluded; n_colors; page_size; set_order; ablation })

(** [generate ~cfg ~summary ~program ~n_cpus] is {!generate_ablated}
    with the full algorithm enabled — the normal entry point. *)
let generate ~cfg ~summary ~program ~n_cpus =
  generate_ablated ~ablation:full_algorithm ~cfg ~summary ~program ~n_cpus

(** [order info] is the final page order: the vpage at each position
    [0 .. total_pages - 1].  The placed positions are a permutation of
    that range, so inverting them fills every slot. *)
let order info =
  let vpages = Array.make info.total_pages 0 in
  List.iter
    (fun ps -> Array.iteri (fun j position -> vpages.(position) <- ps.first_page + j) ps.positions)
    info.placed;
  vpages

(** [coloring_order_points info] is the Figure 5 data: every
    [(position, cpu)] pair, where position is the page's index in the
    CDPC coloring order (ticks at multiples of the color count
    correspond to color zero). *)
let coloring_order_points info =
  List.concat_map
    (fun ps ->
      let cpus = Pcolor_util.Bits.bits_to_list ps.seg.Segment.cpus in
      List.concat_map (fun p -> List.map (fun c -> (p, c)) cpus) (Array.to_list ps.positions))
    info.placed

(** [per_cpu_color_spread info ~cpu] summarizes how CPU [cpu]'s pages
    distribute over colors: [(pages, distinct_colors, max_per_color)].
    Objective 1 met means [max_per_color] close to
    [pages / n_colors] (even spread). *)
let per_cpu_color_spread info ~cpu =
  let per_color = Array.make info.n_colors 0 in
  let pages = ref 0 in
  List.iter
    (fun ps ->
      if ps.seg.Segment.cpus land (1 lsl cpu) <> 0 then
        Array.iter
          (fun position ->
            incr pages;
            let c = position mod info.n_colors in
            per_color.(c) <- per_color.(c) + 1)
          ps.positions)
    info.placed;
  let distinct = Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0 per_color in
  let worst = Array.fold_left max 0 per_color in
  (!pages, distinct, worst)

(** [pp_placement fmt info] dumps the placement (walkthrough example and
    CLI [hints] command). *)
let pp_placement fmt info =
  Format.fprintf fmt "@[<v>%d pages over %d colors; %d arrays excluded@," info.total_pages
    info.n_colors (List.length info.excluded);
  List.iter
    (fun ps ->
      Format.fprintf fmt "  pos %4d..%4d rot %3d  %a@," ps.pos
        (ps.pos + ps.n_pages - 1)
        ps.rotation Segment.pp ps.seg)
    info.placed;
  Format.fprintf fmt "@]"
