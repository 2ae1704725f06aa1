(* Property tests over randomly generated programs: the whole pipeline
   (summary → layout → segments → hints → simulated run) must uphold
   its invariants for arbitrary well-formed inputs, not just the ten
   curated kernels. *)

module Ir = Pcolor.Comp.Ir
module Gen_w = Pcolor.Workloads.Gen
module Run = Pcolor.Runtime.Run
module Colorer = Pcolor.Cdpc.Colorer
module Segment = Pcolor.Cdpc.Segment
module Footprint = Pcolor.Comp.Footprint
module Engine = Pcolor.Runtime.Engine
module Btrace = Pcolor.Runtime.Btrace

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
  (* every nest references at least one array (masks start at 1);
     [arbitrary_refless_spec] below makes reference-free nests *)
  Gen_w.program c ~name:"rand"
    ~phases:[ { Ir.pname = "p"; nests } ]
    ~steady:[ (0, spec.occurrences) ]
    ~startup:10 ()

let print_spec s =
  Printf.sprintf "arrays=%d %dx%d nests=%d occ=%d" s.n_arrays s.rows s.cols (List.length s.nests)
    s.occurrences

let arbitrary_spec = QCheck.make ~print:print_spec spec_gen

let cfg () = Helpers.tiny_cfg ~n_cpus:3 ()

(* Specs whose nests may issue no reference at all: each nest's array
   mask drops to 0 (a reference-free nest) with even odds. *)
let arbitrary_refless_spec =
  QCheck.make ~print:print_spec
    QCheck.Gen.(
      let* spec = spec_gen in
      let* drops = list_repeat (List.length spec.nests) bool in
      return
        {
          spec with
          nests = List.map2 (fun (k, m, st) d -> (k, (if d then 0 else m), st)) spec.nests drops;
        })

(* A program, a CPU count of 1 to 4 and a CDPC ablation (full, or each
   of steps 2-4 on or off). *)
let arbitrary_colored =
  QCheck.make
    ~print:(fun (spec, n_cpus, (a : Colorer.ablation)) ->
      Printf.sprintf "%s cpus=%d sets=%b segs=%b rot=%b"
        (print_spec spec)
        n_cpus a.set_ordering a.segment_ordering a.rotation)
    QCheck.Gen.(
      triple spec_gen (int_range 1 4)
        (map
           (fun (full, (set_ordering, segment_ordering, rotation)) ->
             if full then Colorer.full_algorithm
             else { Colorer.set_ordering; segment_ordering; rotation })
           (pair bool (triple bool bool bool))))

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

(* The colorer's placed positions are the one statement of the §5.2
   page order: they tile [0, total_pages), every hint is its page's
   position mod the color count, and [Colorer.order] inverts them. *)
let prop_positions_are_the_order =
  QCheck.Test.make ~name:"placed positions: a permutation, the hints and the order" ~count:80
    arbitrary_colored
    (fun (spec, n_cpus, ablation) ->
      let p = build spec in
      let cfg = Helpers.tiny_cfg ~n_cpus () in
      let summary = Helpers.layout cfg p in
      let hints, info = Colorer.generate_ablated ~ablation ~cfg ~summary ~program:p ~n_cpus in
      let pages =
        List.concat_map
          (fun (ps : Colorer.placed_segment) ->
            List.mapi (fun j position -> (position, ps.first_page + j)) (Array.to_list ps.positions))
          info.placed
      in
      let order = Colorer.order info in
      List.sort compare (List.map fst pages) = List.init info.total_pages Fun.id
      && List.for_all
           (fun (position, vpage) ->
             Pcolor.Vm.Hints.find hints vpage = Some (position mod info.n_colors)
             && order.(position) = vpage)
           pages
      && Pcolor.Vm.Hints.count hints = info.total_pages
      && List.length (List.sort_uniq compare (Array.to_list order)) = info.total_pages)

(* The per-array, per-CPU steady-state interval walk that step 1 once
   carried itself, kept as the oracle for [Footprint.program_cpu
   ~array_id]: every reference to the array, every steady phase, every
   CPU's scheduled depth-0 range, unioned. *)
let oracle_array_cpu_intervals (p : Ir.program) ~n_cpus ~array_id =
  let phases = Array.of_list p.phases in
  let per_cpu = Array.make n_cpus [] in
  List.iter
    (fun (idx, _) ->
      List.iter
        (fun (nest : Ir.nest) ->
          List.iter
            (fun (r : Ir.ref_) ->
              if r.array.id = array_id then
                for cpu = 0 to n_cpus - 1 do
                  let lo0, hi0 = Pcolor.Comp.Schedule.range nest ~n_cpus ~cpu in
                  match Ir.min_max_index r ~bounds:nest.bounds ~lo0 ~hi0 with
                  | Some (lo_e, hi_e) ->
                    let iv =
                      {
                        Footprint.lo = r.array.base + (lo_e * r.array.elem_size);
                        hi = r.array.base + ((hi_e + 1) * r.array.elem_size);
                      }
                    in
                    per_cpu.(cpu) <- iv :: per_cpu.(cpu)
                  | None -> ()
                done)
            nest.refs)
        phases.(idx).Ir.nests)
    p.steady;
  Array.map Footprint.norm per_cpu

(* Step 1 against the oracle walk: the per-array footprints agree
   interval for interval, each segment's CPU set is exactly the CPUs
   whose oracle footprint covers it, and the segments of an array cover
   exactly the oracle footprints clipped to the array. *)
let prop_segments_match_oracle_walk =
  QCheck.Test.make ~name:"step-1 segments match the per-array interval walk" ~count:80
    arbitrary_colored
    (fun (spec, n_cpus, _) ->
      let p = build spec in
      let cfg = Helpers.tiny_cfg ~n_cpus () in
      let summary = Helpers.layout cfg p in
      let { Segment.segments; _ } = Segment.compute ~summary ~program:p ~n_cpus in
      List.for_all
        (fun (a : Ir.array_decl) ->
          let oracle = oracle_array_cpu_intervals p ~n_cpus ~array_id:a.id in
          let covers cpu lo hi =
            List.exists (fun (iv : Footprint.interval) -> iv.lo <= lo && hi <= iv.hi) oracle.(cpu)
          in
          let mine = List.filter (fun s -> s.Segment.array.Ir.id = a.id) segments in
          let a_lo = a.base and a_hi = a.base + Ir.bytes a in
          let clipped =
            Footprint.norm
              (List.concat_map
                 (List.filter_map (fun (iv : Footprint.interval) ->
                      let lo = max a_lo iv.lo and hi = min a_hi iv.hi in
                      if lo < hi then Some { Footprint.lo; hi } else None))
                 (Array.to_list oracle))
          in
          List.for_all
            (fun cpu -> Footprint.program_cpu ~array_id:a.id p ~n_cpus ~cpu = oracle.(cpu))
            (List.init n_cpus Fun.id)
          && List.for_all
               (fun (s : Segment.t) ->
                 List.for_all
                   (fun cpu -> s.cpus land (1 lsl cpu) <> 0 = covers cpu s.lo s.hi)
                   (List.init n_cpus Fun.id))
               mine
          && (mine = []
             || Footprint.norm (List.map (fun (s : Segment.t) -> { Footprint.lo = s.lo; hi = s.hi }) mine)
                = clipped))
        p.arrays)

(* A reference-free nest is one aggregate tick and one on-chip
   aggregate per CPU on the runs engine: reports and touch sets match
   the interpreter, and a recorded tape replays to the same report. *)
let prop_refless_nests_agree =
  QCheck.Test.make ~name:"reference-free nests: runs, interp and replay agree" ~count:25
    arbitrary_refless_spec
    (fun spec ->
      let setup engine =
        {
          (Run.default_setup ~cfg:(cfg ())
             ~make_program:(fun () -> build spec)
             ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = true }))
          with
          cap = 1;
          collect_trace = true;
          engine;
        }
      in
      let report (o : Run.outcome) = Format.asprintf "%a" Pcolor.Stats.Report.pp o.report in
      let runs = Run.run (setup Engine.Runs) and interp = Run.run (setup Engine.Interp) in
      let s = { (setup Engine.Runs) with collect_trace = false } in
      let path = Filename.temp_file "pcolor_refless" ".pcbt" in
      let replayed =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                let w =
                  Btrace.create_writer oc
                    {
                      Btrace.bench = "rand";
                      machine = "tiny";
                      n_cpus = 3;
                      scale = 1;
                      policy = Run.policy_name s.policy;
                      prefetch = false;
                      seed = s.seed;
                      cap = s.cap;
                      provenance = "test";
                    }
                in
                ignore (Run.run ~recorder:(Btrace.recorder w) s);
                Btrace.finish w);
            In_channel.with_open_bin path (fun ic -> Btrace.replay (Btrace.open_reader ic) ~setup:s))
      in
      report runs = report interp && runs.trace = interp.trace && report replayed = report runs)

let suite =
  [
    Helpers.qsuite "random-programs"
      [
        prop_segments_tile_footprint;
        prop_hints_balanced_bijective;
        prop_pipeline_deterministic;
        prop_policies_agree_on_instructions;
        prop_miss_classes_partition_misses;
        prop_positions_are_the_order;
        prop_segments_match_oracle_walk;
        prop_refless_nests_agree;
      ];
  ]
