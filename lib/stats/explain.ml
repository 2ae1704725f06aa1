(** Text renderer for the artifact's audit sections ([pcolor explain]):
    top conflicting page-pair tables, per-array miss-class stacked bars,
    the color-occupancy heatmap, and the §5.2 decision log.  Consumes a
    {e parsed} artifact (any JSON producer works, not just this
    binary's), so missing sections degrade to a note instead of an
    error. *)

module J = Pcolor_obs.Json

(* One glyph per miss class for the stacked bars (first letters collide:
   cold/capacity/conflict), matched by class-name prefix so the renderer
   needs no dependency on the Mclass variant itself. *)
let class_glyph = function
  | "cold" -> "."
  | "capacity" -> "a"
  | "conflict" -> "x"
  | "true-sharing" -> "t"
  | "false-sharing" -> "f"
  | _ -> "?"

let shades = " .:-=+*#%@"

let shade_of ~max_v v =
  if max_v <= 0 then shades.[0]
  else shades.[min (String.length shades - 1) (v * String.length shades / (max_v + 1))]

let geti v name = Option.bind (J.member name v) J.to_int_opt

let gets v name = Option.bind (J.member name v) J.to_string_opt

let getl v name = match J.member name v with Some (J.Arr l) -> l | _ -> []

let class_counts v =
  match J.member "by_class" v with
  | Some (J.Obj kvs) ->
    List.filter_map (fun (k, c) -> Option.map (fun n -> (k, n)) (J.to_int_opt c)) kvs
  | _ -> []

let frame_label v prefix =
  let tag s = if prefix = "" then s else prefix ^ "_" ^ s in
  let frame = Option.value ~default:(-1) (geti v (tag "frame")) in
  let color = Option.value ~default:(-1) (geti v (tag "color")) in
  let where =
    match (geti v (tag "vpage"), gets v (tag "array")) with
    | Some vp, Some arr -> Printf.sprintf "%s vpage %d" arr vp
    | Some vp, None -> Printf.sprintf "vpage %d" vp
    | None, _ -> "unmapped"
  in
  Printf.sprintf "frame %d (color %d, %s)" frame color where

(* [array_classes frames] folds an attribution section's [top_frames]
   by owning array: [(array, [(class, count)])] in first-seen order. *)
let array_classes frames =
  let by_array = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun f ->
      let name = Option.value ~default:"(unmapped)" (gets f "array") in
      let cur =
        match Hashtbl.find_opt by_array name with
        | Some c -> c
        | None ->
          order := name :: !order;
          []
      in
      let merged =
        List.map
          (fun (k, n) -> (k, n + Option.value ~default:0 (List.assoc_opt k cur)))
          (class_counts f)
      in
      Hashtbl.replace by_array name (if merged = [] then cur else merged))
    frames;
  List.rev_map (fun a -> (a, Hashtbl.find by_array a)) !order

(** [render_attribution ?top buf v] prints the ["attribution"] section:
    class totals, the [top] hottest eviction pairs, per-array stacked
    bars and the per-color heatmap. *)
let render_attribution ?(top = 10) buf v =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== conflict attribution ==\n";
  add "external-cache misses: %d\n" (Option.value ~default:0 (geti v "total_misses"));
  List.iter (fun (k, n) -> add "  %-14s %d\n" k n) (class_counts v);
  let pairs = getl v "top_pairs" in
  let distinct = Option.value ~default:(List.length pairs) (geti v "distinct_pairs") in
  add "\ntop eviction pairs (%d shown of %d distinct):\n" (min top (List.length pairs)) distinct;
  List.iteri
    (fun i p ->
      if i < top then
        add "  %6d  %s evicted by %s\n"
          (Option.value ~default:0 (geti p "count"))
          (frame_label p "victim") (frame_label p "evictor"))
    pairs;
  if pairs = [] then add "  (none: no replacement misses recorded)\n";
  (* Per-array miss classes, aggregated from the hottest frames. *)
  let arrays = array_classes (getl v "top_frames") in
  if arrays <> [] then begin
    add "\nper-array miss classes (from the %d hottest frames; %s):\n"
      (List.length (getl v "top_frames"))
      (String.concat " "
         (List.map (fun (k, _) -> class_glyph k ^ "=" ^ k)
            (match arrays with (_, counts) :: _ -> counts | [] -> [])));
    let max_total =
      List.fold_left
        (fun m (_, counts) -> max m (List.fold_left (fun s (_, n) -> s + n) 0 counts))
        1 arrays
    in
    List.iter
      (fun (a, counts) ->
        let segs = List.map (fun (k, n) -> (class_glyph k, float_of_int n)) counts in
        let total = List.fold_left (fun s (_, n) -> s + n) 0 counts in
        add "  %-12s |%s| %d\n" a
          (Pcolor_util.Chart.stacked_bar ~width:40 ~max_v:(float_of_int max_total) segs)
          total)
      arrays
  end;
  (* Color heatmap: one shade cell per color, then the loaded colors. *)
  let colors = getl v "colors" in
  if colors <> [] then begin
    let totals =
      List.map
        (fun c -> List.fold_left (fun s (_, n) -> s + n) 0 (class_counts c))
        colors
    in
    let max_c = List.fold_left max 0 totals in
    add "\ncolor occupancy (%d colors, shade = misses, max %d):\n  |%s|\n"
      (List.length colors) max_c
      (String.concat "" (List.map (fun t -> String.make 1 (shade_of ~max_v:max_c t)) totals));
    List.iteri
      (fun i t ->
        if t > 0 then
          add "  color %2d %6d |%s|\n" i t
            (Pcolor_util.Chart.bar ~width:30 ~max_v:(float_of_int max_c) (float_of_int t)))
      totals
  end;
  let sets = getl v "top_sets" in
  if sets <> [] then begin
    add "\nhottest cache sets:\n";
    List.iteri
      (fun i s ->
        if i < top then
          add "  set %5d  %d replacement misses\n"
            (Option.value ~default:0 (geti s "set"))
            (Option.value ~default:0 (geti s "misses")))
      sets
  end

(** [render_decisions ?page_rows buf v] prints the
    ["coloring_decisions"] section: ablation state, the step-2 set
    order, per-segment placement provenance, and the first [page_rows]
    per-page color assignments. *)
let render_decisions ?(page_rows = 16) buf v =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== coloring decisions (\xc2\xa75.2) ==\n";
  (match J.member "ablation" v with
  | Some ab ->
    let on name =
      match J.member name ab with Some (J.Bool b) -> (name, b) | _ -> (name, true)
    in
    add "steps: %s\n"
      (String.concat ", "
         (List.map
            (fun (n, b) -> Printf.sprintf "%s %s" n (if b then "on" else "OFF"))
            [ on "set_ordering"; on "segment_ordering"; on "rotation" ]))
  | None -> ());
  add "%d pages over %d colors\n"
    (Option.value ~default:0 (geti v "total_pages"))
    (Option.value ~default:0 (geti v "n_colors"));
  (match getl v "set_order" with
  | [] -> ()
  | masks ->
    add "step-2 set order: %s\n"
      (String.concat " "
         (List.map
            (fun m -> Printf.sprintf "0x%x" (Option.value ~default:0 (J.to_int_opt m)))
            masks)));
  (match getl v "excluded" with
  | [] -> ()
  | ex ->
    add "excluded arrays: %s\n"
      (String.concat ", "
         (List.map (fun e -> Option.value ~default:"?" (J.to_string_opt e)) ex)));
  add "segments (placement order; set_rank = step 2, seg_rank = step 3):\n";
  List.iter
    (fun s ->
      add "  %-12s pages %5d+%-4d pos %5d rot %3d set_rank %2d seg_rank %2d cpus 0x%x\n"
        (Option.value ~default:"?" (gets s "array"))
        (Option.value ~default:0 (geti s "first_page"))
        (Option.value ~default:0 (geti s "n_pages"))
        (Option.value ~default:0 (geti s "pos"))
        (Option.value ~default:0 (geti s "rotation"))
        (Option.value ~default:(-1) (geti s "set_rank"))
        (Option.value ~default:0 (geti s "seg_rank"))
        (Option.value ~default:0 (geti s "cpus_mask")))
    (getl v "segments");
  let pages = getl v "pages" in
  if pages <> [] then begin
    add "per-page colors (first %d of %d):\n" (min page_rows (List.length pages))
      (List.length pages);
    List.iteri
      (fun i p ->
        if i < page_rows then
          add "  vpage %5d  %-12s pos %5d -> color %2d  (%s)\n"
            (Option.value ~default:0 (geti p "vpage"))
            (Option.value ~default:"?" (gets p "array"))
            (Option.value ~default:0 (geti p "position"))
            (Option.value ~default:0 (geti p "color"))
            (Option.value ~default:"?" (gets p "chosen_by")))
      pages;
    if List.length pages > page_rows then
      add "  ... %d more pages in the artifact\n" (List.length pages - page_rows)
  end

(** [per_array_rollup artifact] aggregates the attribution section's
    hottest frames by owning array into
    [{"per_array": {array: {class: count}}}] — a stable, nameable shape
    [Delta.diff] can pair across runs (the raw hot lists are rankings,
    so positional pairing is noise). *)
let per_array_rollup artifact =
  let frames =
    match J.member "attribution" artifact with Some att -> getl att "top_frames" | None -> []
  in
  J.Obj
    [
      ( "per_array",
        J.Obj
          (List.map
             (fun (a, counts) -> (a, J.Obj (List.map (fun (k, n) -> (k, J.Int n)) counts)))
             (array_classes frames)) );
    ]

(** [render ?top ?page_rows artifact] is the full [pcolor explain]
    report for a parsed artifact: header (benchmark, machine, policy,
    schema, git), attribution, decision log.  Sections the artifact
    lacks degrade to a note. *)
let render ?top ?page_rows artifact =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match J.member "report" artifact with
  | Some r ->
    add "run: %s on %s, policy %s, %d cpu(s)\n"
      (Option.value ~default:"?" (gets r "benchmark"))
      (Option.value ~default:"?" (gets r "machine"))
      (Option.value ~default:"?" (gets r "policy"))
      (Option.value ~default:0 (geti r "n_cpus"))
  | None -> add "run: (no report section)\n");
  add "artifact schema v%d%s\n\n"
    (Option.value ~default:0 (geti artifact "schema_version"))
    (match Option.bind (J.member "provenance" artifact) (fun p -> gets p "git") with
    | Some g -> Printf.sprintf ", git %s" g
    | None -> "");
  (match J.member "attribution" artifact with
  | Some a ->
    render_attribution ?top buf a;
    add "\n"
  | None ->
    add "(no attribution section: run with --metrics-out to collect it)\n\n");
  (match J.member "coloring_decisions" artifact with
  | Some d -> render_decisions ?page_rows buf d
  | None -> add "(no coloring-decision log: only CDPC-policy runs emit one)\n");
  Buffer.contents buf
