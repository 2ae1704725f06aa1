(* Property tests over randomly generated programs: the whole pipeline
   (summary → layout → segments → hints → simulated run) must uphold
   its invariants for arbitrary well-formed inputs, not just the ten
   curated kernels. *)

module Ir = Pcolor.Comp.Ir
module Gen_w = Pcolor.Workloads.Gen
module Run = Pcolor.Runtime.Run
module Colorer = Pcolor.Cdpc.Colorer
module Segment = Pcolor.Cdpc.Segment

(* ---- generator ---- *)

type spec = {
  n_arrays : int; (* 1..4 *)
  rows : int; (* 4..12 *)
  cols : int; (* 16..128, multiple of 4 *)
  nests : (int * int * int) list; (* (kind 0..2, array subset mask, stencil 0..1) *)
  occurrences : int; (* 1..5 *)
}

let spec_gen =
  QCheck.Gen.(
    let* n_arrays = int_range 1 4 in
    let* rows = int_range 4 12 in
    let* cols = map (fun k -> 4 * k) (int_range 4 32) in
    let* n_nests = int_range 1 3 in
    let* nests =
      list_repeat n_nests
        (triple (int_range 0 2) (int_range 1 ((1 lsl n_arrays) - 1)) (int_range 0 1))
    in
    let* occurrences = int_range 1 5 in
    return { n_arrays; rows; cols; nests; occurrences })

let build spec =
  let c = Gen_w.ctx () in
  let arrays =
    Array.init spec.n_arrays (fun i ->
        Gen_w.arr2 c (Printf.sprintf "R%d" i) ~rows:spec.rows ~cols:spec.cols)
  in
  let nests =
    List.mapi
      (fun i (kind, mask, stencil) ->
        let kind =
          match kind with
          | 0 -> Gen_w.parallel_even
          | 1 -> Ir.Sequential
          | _ -> Ir.Suppressed
        in
        let refs =
          List.concat
            (List.filteri (fun a _ -> mask land (1 lsl a) <> 0)
               (List.init spec.n_arrays (fun a ->
                    if stencil = 1 then
                      [
                        Gen_w.interior2 arrays.(a) ~di:(-1) ~dj:0 ~write:false;
                        Gen_w.interior2 arrays.(a) ~di:1 ~dj:0 ~write:(a mod 2 = 0);
                      ]
                    else [ Gen_w.full2 arrays.(a) ~write:(a mod 2 = 1) ])))
        in
        let bounds =
          if stencil = 1 then [| spec.rows - 2; spec.cols - 2 |] else [| spec.rows; spec.cols |]
        in
        Ir.make_nest ~label:(Printf.sprintf "rand%d" i) ~kind ~bounds ~refs ~body_instr:3 ())
      spec.nests
  in
  (* nests with no refs are legal but boring; keep them anyway *)
  Gen_w.program c ~name:"rand"
    ~phases:[ { Ir.pname = "p"; nests } ]
    ~steady:[ (0, spec.occurrences) ]
    ~startup:10 ()

let arbitrary_spec = QCheck.make ~print:(fun s -> Printf.sprintf "arrays=%d %dx%d nests=%d occ=%d"
                                            s.n_arrays s.rows s.cols (List.length s.nests) s.occurrences)
    spec_gen

let cfg () = Helpers.tiny_cfg ~n_cpus:3 ()

let prop_segments_tile_footprint =
  QCheck.Test.make ~name:"segments cover accessed bytes with nonempty masks" ~count:60
    arbitrary_spec
    (fun spec ->
      let p = build spec in
      let cfg = cfg () in
      let summary = Helpers.layout cfg p in
      let { Segment.segments; _ } = Segment.compute ~summary ~program:p ~n_cpus:3 in
      let segments = Segment.coalesce segments in
      List.for_all (fun s -> s.Segment.cpus <> 0 && Segment.bytes s > 0) segments
      &&
      (* segments are disjoint and sorted within each array *)
      let rec disjoint = function
        | a :: (b :: _ as rest) ->
          (a.Segment.array.Ir.id <> b.Segment.array.Ir.id || a.Segment.hi <= b.Segment.lo)
          && disjoint rest
        | _ -> true
      in
      disjoint segments)

let prop_hints_balanced_bijective =
  QCheck.Test.make ~name:"hints are balanced and cover each page once" ~count:60 arbitrary_spec
    (fun spec ->
      let p = build spec in
      let cfg = cfg () in
      let summary = Helpers.layout cfg p in
      let hints, info = Colorer.generate ~cfg ~summary ~program:p ~n_cpus:3 in
      Pcolor.Vm.Hints.count hints = info.total_pages
      &&
      let hist = Pcolor.Vm.Hints.color_histogram hints in
      let used = Array.to_list hist |> List.filter (( < ) 0) in
      used = []
      || List.fold_left max 0 used - List.fold_left min max_int used <= 1)

let prop_pipeline_deterministic =
  QCheck.Test.make ~name:"full pipeline is deterministic" ~count:15 arbitrary_spec
    (fun spec ->
      let once () =
        let s =
          {
            (Run.default_setup ~cfg:(cfg ())
               ~make_program:(fun () -> build spec)
               ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = false }))
            with
            check_bounds = true;
            cap = 1;
          }
        in
        let r = (Run.run s).report in
        (r.wall_cycles, r.instructions, Pcolor.Stats.Report.replacement_misses r)
      in
      once () = once ())

let prop_policies_agree_on_instructions =
  QCheck.Test.make ~name:"policies change timing, never instruction counts" ~count:15
    arbitrary_spec
    (fun spec ->
      let run policy =
        let s =
          {
            (Run.default_setup ~cfg:(cfg ()) ~make_program:(fun () -> build spec) ~policy) with
            cap = 1;
          }
        in
        (Run.run s).report.instructions
      in
      let i1 = run Run.Page_coloring in
      let i2 = run Run.Bin_hopping in
      let i3 = run (Run.Cdpc { fallback = `Page_coloring; via_touch = false }) in
      i1 = i2 && i2 = i3)

let prop_miss_classes_partition_misses =
  QCheck.Test.make ~name:"per-class misses sum to total external misses" ~count:20
    arbitrary_spec
    (fun spec ->
      let s =
        {
          (Run.default_setup ~cfg:(cfg ())
             ~make_program:(fun () -> build spec)
             ~policy:Run.Page_coloring)
          with
          cap = 1;
        }
      in
      let o = Run.run s in
      let get = Pcolor.Stats.Totals.get o.totals in
      let by_class =
        List.fold_left
          (fun acc c -> acc +. get ("l2_miss." ^ Pcolor.Memsim.Mclass.to_string c))
          0.0 Pcolor.Memsim.Mclass.all
      in
      (* l1_misses = l2 hits + l2 misses (every L1 miss goes to L2) *)
      abs_float (get "l1_misses" -. (get "l2_hits" +. by_class)) < 1e-6)

let suite =
  [
    Helpers.qsuite "random-programs"
      [
        prop_segments_tile_footprint;
        prop_hints_balanced_bijective;
        prop_pipeline_deterministic;
        prop_policies_agree_on_instructions;
        prop_miss_classes_partition_misses;
      ];
  ]
