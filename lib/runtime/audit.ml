(** Post-run audit enrichment: joins the raw conflict-attribution
    counters (physical frames, external-cache sets, class indices) with
    the VM page table and the program's array layout, and serializes the
    colorer's §5.2 decision provenance.  Produces the two
    machine-readable audit sections of the run artifact — [pcolor
    explain] renders them, [pcolor diff] compares them. *)

module J = Pcolor_obs.Json
module Ir = Pcolor_comp.Ir

(* The artifact is a summary, not a dump: unbounded tables (one entry
   per eviction pair on a large run) are capped at the hottest entries
   and the cap is recorded next to the full cardinality, so a reader
   can tell truncation from completeness. *)
let pairs_cap = 64

let frames_cap = 64

let sets_cap = 64

let pages_cap = 4096

(** [array_of_vpage ~page_size program vpage] is the name of the array
    whose allocated bytes overlap virtual page [vpage], if any (a page
    straddling two abutting arrays reports the first in declaration
    order). *)
let array_of_vpage ~page_size (program : Ir.program) vpage =
  let lo = vpage * page_size and hi = (vpage + 1) * page_size in
  let rec find = function
    | [] -> None
    | (a : Ir.array_decl) :: rest ->
      if a.base >= 0 && a.base < hi && a.base + Ir.bytes a > lo then Some a.aname else find rest
  in
  find program.arrays

let class_fields counts =
  List.map
    (fun c -> (Pcolor_memsim.Mclass.to_string c, J.Int counts.(Pcolor_memsim.Mclass.index c)))
    Pcolor_memsim.Mclass.all

(** [attribution_json ~spaces ~page_size attrib] is the
    artifact's ["attribution"] section for one or more address spaces
    (kernel × program pairs — a multiprogrammed mix passes one pair per
    job, a single run exactly one): per-class totals, per-color miss
    histograms, and the hottest eviction pairs / frames / cache sets —
    each physical frame enriched with its color and, when some space's
    page table still maps it, its virtual page and owning array. *)
let attribution_json ~(spaces : (Pcolor_vm.Kernel.t * Ir.program) list) ~page_size attrib =
  let module A = Pcolor_obs.Attrib in
  let pool =
    match spaces with
    | (k, _) :: _ -> Pcolor_vm.Kernel.pool k
    | [] -> invalid_arg "Audit.attribution_json: no address spaces"
  in
  let find_mapping frame =
    let rec go = function
      | [] -> None
      | (k, p) :: rest -> (
        match Pcolor_vm.Page_table.vpage_of (Pcolor_vm.Kernel.page_table k) frame with
        | -1 -> go rest
        | vp -> Some (vp, p))
    in
    go spaces
  in
  let frame_fields prefix frame =
    let tag s = if prefix = "" then s else prefix ^ "_" ^ s in
    [ (tag "frame", J.Int frame); (tag "color", J.Int (Pcolor_vm.Frame_pool.color_of pool frame)) ]
    @
    match find_mapping frame with
    | None -> []
    | Some (vp, program) -> (
      (tag "vpage", J.Int vp)
      ::
      (match array_of_vpage ~page_size program vp with
      | Some arr -> [ (tag "array", J.Str arr) ]
      | None -> []))
  in
  let take n l =
    let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
    go n l
  in
  let pairs = A.pairs attrib in
  let frames = A.frames attrib in
  let sets = A.sets attrib in
  let colors =
    List.init (A.n_colors attrib) (fun c ->
        let counts = A.color_counts attrib ~color:c in
        J.Obj (("color", J.Int c) :: ("by_class", J.Obj (class_fields counts)) :: []))
  in
  J.Obj
    [
      ("total_misses", J.Int (A.total attrib));
      ("by_class", J.Obj (class_fields (A.totals_by_class attrib)));
      ("distinct_pairs", J.Int (A.distinct_pairs attrib));
      ("pairs_cap", J.Int pairs_cap);
      ( "top_pairs",
        J.Arr
          (List.map
             (fun (victim, evictor, count) ->
               J.Obj
                 ((("count", J.Int count) :: frame_fields "victim" victim)
                 @ frame_fields "evictor" evictor))
             (take pairs_cap pairs)) );
      ("distinct_frames", J.Int (List.length frames));
      ("frames_cap", J.Int frames_cap);
      ( "top_frames",
        J.Arr
          (List.map
             (fun (frame, counts) ->
               J.Obj
                 (frame_fields "" frame
                 @ [
                     ("misses", J.Int (Array.fold_left ( + ) 0 counts));
                     ("by_class", J.Obj (class_fields counts));
                   ]))
             (take frames_cap frames)) );
      ("distinct_sets", J.Int (List.length sets));
      ("sets_cap", J.Int sets_cap);
      ( "top_sets",
        J.Arr
          (List.map
             (fun (set, count) -> J.Obj [ ("set", J.Int set); ("misses", J.Int count) ])
             (take sets_cap sets)) );
      ("colors", J.Arr colors);
    ]

(** [decisions_json ?hash info] is the artifact's
    ["coloring_decisions"] section: which §5.2 steps ran, the step-2
    access-set order, and every placed segment with its step-2/step-3
    ranks and step-4 rotation, plus the per-page color assignments
    ([pages_cap]-bounded) with the step that produced each.  [hash]
    (hash-aware CDPC) names the slice-hash inversion the hints were
    realized through; it suffixes every [chosen_by] entry. *)
let decisions_json ?hash (info : Pcolor_cdpc.Colorer.info) =
  let module C = Pcolor_cdpc.Colorer in
  let segments =
    List.map
      (fun (ps : C.placed_segment) ->
        J.Obj
          [
            ("array", J.Str ps.seg.Pcolor_cdpc.Segment.array.Ir.aname);
            ("cpus_mask", J.Int ps.seg.Pcolor_cdpc.Segment.cpus);
            ("first_page", J.Int ps.first_page);
            ("n_pages", J.Int ps.n_pages);
            ("pos", J.Int ps.pos);
            ("rotation", J.Int ps.rotation);
            ("set_rank", J.Int ps.set_rank);
            ("seg_rank", J.Int ps.seg_rank);
          ])
      info.placed
  in
  let pages = ref [] in
  let n_pages_emitted = ref 0 in
  List.iter
    (fun (ps : C.placed_segment) ->
      let array = J.Str ps.seg.Pcolor_cdpc.Segment.array.Ir.aname in
      let step =
        if ps.rotation <> 0 then "step4-rotation+step5-round-robin" else "step5-round-robin"
      in
      let chosen_by = J.Str (match hash with Some h -> step ^ "+" ^ h | None -> step) in
      Array.iteri
        (fun j position ->
          if !n_pages_emitted < pages_cap then begin
            incr n_pages_emitted;
            pages :=
              J.Obj
                [
                  ("vpage", J.Int (ps.first_page + j));
                  ("array", array);
                  ("position", J.Int position);
                  ("color", J.Int (position mod info.n_colors));
                  ("chosen_by", chosen_by);
                ]
              :: !pages
          end)
        ps.positions)
    info.placed;
  J.Obj
    [
      ( "ablation",
        J.Obj
          [
            ("set_ordering", J.Bool info.ablation.set_ordering);
            ("segment_ordering", J.Bool info.ablation.segment_ordering);
            ("rotation", J.Bool info.ablation.rotation);
          ] );
      ("n_colors", J.Int info.n_colors);
      ("page_size", J.Int info.page_size);
      ("total_pages", J.Int info.total_pages);
      ("set_order", J.Arr (List.map (fun m -> J.Int m) info.set_order));
      ( "excluded",
        J.Arr (List.map (fun (a : Ir.array_decl) -> J.Str a.aname) info.excluded) );
      ("segments", J.Arr segments);
      ("pages_cap", J.Int pages_cap);
      ("pages", J.Arr (List.rev !pages));
    ]
