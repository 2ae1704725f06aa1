(* One function per paper table/figure: runs the experiments and prints
   the same rows/series the paper reports, plus explicit shape checks of
   the paper's headline claims. *)

open Harness
module Mclass = Pcolor.Memsim.Mclass
module Ir = Pcolor.Comp.Ir
module Footprint = Pcolor.Comp.Footprint
module Colorer = Pcolor.Cdpc.Colorer
module Chart = Pcolor.Util.Chart

(* ---------- Table 1 ---------- *)

let table1 () =
  section "Table 1: Reference data set sizes of SPEC95fp";
  let t =
    Table.create ~title:""
      [ "Benchmark"; "paper (MB)"; "modeled (MB)"; Printf.sprintf "at scale 1/%d (MB)" scale ]
  in
  List.iter
    (fun (d : Spec.descriptor) ->
      let full = d.build ~scale:1 () in
      let scaled = d.build ~scale () in
      Table.add_row t
        [
          d.name;
          Table.fcell ~prec:0 d.table1_mb;
          Table.fcell ~prec:1 (float_of_int (Ir.data_set_bytes full) /. 1048576.0);
          Table.fcell ~prec:2 (float_of_int (Ir.data_set_bytes scaled) /. 1048576.0);
        ])
    Spec.all;
  Table.print t;
  note "shape check: modeled sizes track Table 1 (tomcatv/swim 14, su2cor 23, hydro2d 8,";
  note "mgrid 7, applu 31, turb3d 24, apsi 9, fpppp <1, wave5 40 MB)."

(* ---------- Figure 2 ---------- *)

let figure2 () =
  section
    (Printf.sprintf
       "Figure 2: High-level characterization (page coloring, 1MB-DM machine / scale %d)" scale);
  prefill
    (List.concat_map
       (fun (d : Spec.descriptor) ->
         List.map
           (fun n_cpus -> exp ~bench:d.name ~machine:"sgi" ~n_cpus ~policy:Run.Page_coloring ())
           cpu_counts)
       Spec.all);
  let runs =
    List.map
      (fun (d : Spec.descriptor) ->
        ( d.name,
          List.map
            (fun p -> (p, experiment ~bench:d.name ~machine:"sgi" ~n_cpus:p ~policy:Run.Page_coloring ()))
            cpu_counts ))
      Spec.all
  in
  (* panel 1: combined execution time *)
  let t1 =
    Table.create ~title:"Panel 1: combined execution time (cycles x 1e6, summed over CPUs)"
      ("benchmark/cpus" :: List.map string_of_int cpu_counts)
  in
  List.iter
    (fun (name, rs) ->
      Table.add_row t1
        (name
        :: List.map
             (fun (_, (r : Report.t)) ->
               Printf.sprintf "%.0f (exec %.0f, mem %.0f, ovh %.0f)"
                 (r.combined_cycles /. 1e6) (r.exec_cycles /. 1e6) (r.mem_stall_cycles /. 1e6)
                 (Report.total_overhead r /. 1e6))
             rs))
    runs;
  Table.print t1;
  (* panel 2: overhead breakdown at the largest CPU count *)
  let pmax = List.fold_left max 1 cpu_counts in
  let t2 =
    Table.create
      ~title:(Printf.sprintf "Panel 2: overheads at %d CPUs (cycles x 1e6)" pmax)
      [ "benchmark"; "kernel"; "imbalance"; "sequential"; "suppressed"; "sync" ]
  in
  List.iter
    (fun (name, rs) ->
      let r = List.assoc pmax rs in
      Table.add_row t2
        [
          name;
          Table.fcell (r.Report.ov_kernel /. 1e6);
          Table.fcell (r.ov_imbalance /. 1e6);
          Table.fcell (r.ov_sequential /. 1e6);
          Table.fcell (r.ov_suppressed /. 1e6);
          Table.fcell (r.ov_sync /. 1e6);
        ])
    runs;
  Table.print t2;
  (* panel 3: memory system behaviour (MCPI by class) *)
  let t3 =
    Table.create ~title:"Panel 3: MCPI breakdown (per CPU count: total / onchip / repl / comm)"
      ("benchmark" :: List.map string_of_int cpu_counts)
  in
  List.iter
    (fun (name, rs) ->
      Table.add_row t3
        (name
        :: List.map
             (fun (_, (r : Report.t)) ->
               let repl =
                 r.mcpi_by_class.(Mclass.index Capacity) +. r.mcpi_by_class.(Mclass.index Conflict)
               in
               let comm =
                 r.mcpi_by_class.(Mclass.index True_sharing)
                 +. r.mcpi_by_class.(Mclass.index False_sharing)
               in
               Printf.sprintf "%.2f/%.2f/%.2f/%.2f" r.mcpi r.mcpi_onchip repl comm)
             rs))
    runs;
  Table.print t3;
  (* panel 4: bus utilization *)
  let t4 =
    Table.create ~title:"Panel 4: bus occupancy (%)"
      ("benchmark" :: List.map string_of_int cpu_counts)
  in
  List.iter
    (fun (name, rs) ->
      Table.add_row t4
        (name
        :: List.map (fun (_, (r : Report.t)) -> Table.pcell (100.0 *. r.bus_occupancy)) rs))
    runs;
  Table.print t4;
  (* shape checks *)
  let r1 name p = List.assoc p (List.assoc name runs) in
  (* the paper's claim is "near linear speedups, at least up to eight
     processors" — check at 8 *)
  let p8 = if List.mem 8 cpu_counts then 8 else pmax in
  let near_linear name =
    let a = (r1 name 1).Report.combined_cycles and b = (r1 name p8).Report.combined_cycles in
    b < 2.2 *. a
  in
  note "shape checks:";
  note "  - near-constant combined time up to %d CPUs (near-linear speedup): %s" p8
    (String.concat ", "
       (List.filter near_linear [ "tomcatv"; "swim"; "hydro2d"; "mgrid"; "turb3d"; "su2cor"; "applu" ]));
  note "  - apsi/fpppp/wave5 gain little (suppressed/sequential dominate): apsi %.1fx, fpppp %.1fx, wave5 %.1fx"
    (Report.speedup ~base:(r1 "apsi" 1) (r1 "apsi" pmax))
    (Report.speedup ~base:(r1 "fpppp" 1) (r1 "fpppp" pmax))
    (Report.speedup ~base:(r1 "wave5" 1) (r1 "wave5" pmax));
  note "  - bus saturates with CPU count (paper: 50-95%% at 16): tomcatv %.0f%%, swim %.0f%%"
    (100.0 *. (r1 "tomcatv" pmax).Report.bus_occupancy)
    (100.0 *. (r1 "swim" pmax).Report.bus_occupancy);
  note "  - tomcatv MCPI inflates with contention even as misses stay flat: %.2f -> %.2f"
    (r1 "tomcatv" 1).Report.mcpi (r1 "tomcatv" pmax).Report.mcpi;
  note "  - fpppp puts no load on the bus: %.1f%%" (100.0 *. (r1 "fpppp" pmax).Report.bus_occupancy)

(* ---------- Figures 3 and 5 ---------- *)

let access_patterns () =
  section "Figures 3 & 5: page-level access patterns (16 CPUs)";
  let n_cpus = 16 in
  List.iter
    (fun bench ->
      let d = Spec.find bench in
      let cfg = machine_cfg "sgi" ~n_cpus in
      let prepared =
        Run.prepare (Run.default_setup ~cfg ~make_program:(fun () -> d.build ~scale ()) ~policy:cdpc)
      in
      (* Figure 3: virtual-address order *)
      let pts = Footprint.touch_points prepared.program ~n_cpus ~page_size:cfg.page_size in
      let x_max = 1 + List.fold_left (fun m (pg, _) -> max m pg) 0 pts in
      print_string
        (Chart.scatter
           ~title:(Printf.sprintf "[Fig 3] %s: pages touched, virtual-address order" bench)
           ~cols:100 ~n_rows:n_cpus ~x_max pts);
      (* Figure 5: CDPC coloring order *)
      let info = snd (Option.get prepared.hints_info) in
      let cpts = Colorer.coloring_order_points info in
      print_string
        (Chart.scatter
           ~title:(Printf.sprintf "[Fig 5] %s: pages touched, CDPC coloring order" bench)
           ~cols:100 ~n_rows:n_cpus ~x_max:(max 1 info.total_pages) cpts);
      (* density comparison *)
      let density points =
        Pcolor.Obs.Stat.mean_of
          (List.map
             (fun (_, distinct, span) -> float_of_int distinct /. float_of_int span)
             (Chart.density points))
      in
      note "%s: mean per-CPU density %.0f%% (VA order) -> %.0f%% (coloring order)" bench
        (100.0 *. density pts) (100.0 *. density cpts);
      print_newline ())
    [ "tomcatv"; "swim"; "hydro2d" ];
  note "shape check: sparse scattered bands in VA order become dense contiguous runs in";
  note "coloring order — the paper's Figure 3 -> Figure 5 transformation."

(* ---------- Figure 6 ---------- *)

let pc_vs_cdpc ~machine ~benches ~cpus ~title () =
  section title;
  prefill
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun n_cpus ->
             [
               exp ~bench ~machine ~n_cpus ~policy:Run.Page_coloring ();
               exp ~bench ~machine ~n_cpus ~policy:cdpc ();
             ])
           cpus)
       benches);
  let t =
    Table.create ~title:"combined execution time, page coloring vs CDPC (cycles x 1e6; speedup)"
      ("benchmark" :: List.map string_of_int cpus)
  in
  let speedups = ref [] in
  List.iter
    (fun bench ->
      Table.add_row t
        (bench
        :: List.map
             (fun n_cpus ->
               let pc = experiment ~bench ~machine ~n_cpus ~policy:Run.Page_coloring () in
               let cd = experiment ~bench ~machine ~n_cpus ~policy:cdpc () in
               let s = Report.speedup ~base:pc cd in
               speedups := (bench, n_cpus, s, pc, cd) :: !speedups;
               Printf.sprintf "%.0f -> %.0f (%.2fx)" (pc.Report.combined_cycles /. 1e6)
                 (cd.Report.combined_cycles /. 1e6) s)
             cpus))
    benches;
  Table.print t;
  !speedups

let figure6 () =
  let speedups =
    pc_vs_cdpc ~machine:"sgi"
      ~benches:(List.map (fun (d : Spec.descriptor) -> d.name) Spec.figure6_benchmarks)
      ~cpus:cpu_counts
      ~title:
        (Printf.sprintf "Figure 6: impact of CDPC (1MB-DM machine / scale %d); apsi and fpppp omitted as in the paper"
           scale)
      ()
  in
  let s b p = match List.find_opt (fun (b', p', _, _, _) -> b = b' && p = p') speedups with
    | Some (_, _, s, _, _) -> s
    | None -> 0.0
  in
  let pmax = List.fold_left max 1 cpu_counts in
  note "shape checks:";
  note "  - gains grow with CPU count (tomcatv: %.2fx @1 -> %.2fx @%d; swim: %.2fx -> %.2fx)"
    (s "tomcatv" 1) (s "tomcatv" pmax) pmax (s "swim" 1) (s "swim" pmax);
  note "  - conflict misses nearly eliminated when the working set fits the aggregate cache:";
  List.iter
    (fun bench ->
      match List.find_opt (fun (b, p, _, _, _) -> b = bench && p = pmax) speedups with
      | Some (_, _, _, pc, cd) ->
        note "      %s @%d: %.0f -> %.0f conflicts" bench pmax (Report.conflict_misses pc)
          (Report.conflict_misses cd)
      | None -> ())
    [ "tomcatv"; "swim"; "hydro2d" ];
  note "  - su2cor slightly degraded (non-contiguous gauge field excluded from CDPC): %.2fx @%d"
    (s "su2cor" pmax) pmax;
  note "  - applu capacity-bound at this cache size, CDPC no help: %.2fx @%d" (s "applu" pmax) pmax

(* ---------- Figure 7 ---------- *)

let figure7 () =
  let benches = [ "tomcatv"; "swim"; "hydro2d"; "su2cor"; "mgrid"; "applu" ] in
  let cpus = if fast then [ 4; 16 ] else [ 2; 4; 8; 16 ] in
  let s2 =
    pc_vs_cdpc ~machine:"sgi-2way" ~benches ~cpus
      ~title:
        (Printf.sprintf "Figure 7a: CDPC on a 1MB two-way set-associative cache (scale %d)" scale)
      ()
  in
  let s4 =
    pc_vs_cdpc ~machine:"sgi-4mb" ~benches ~cpus
      ~title:(Printf.sprintf "Figure 7b: CDPC on a 4MB direct-mapped cache (scale %d)" scale)
      ()
  in
  let sp l b p =
    match List.find_opt (fun (b', p', _, _, _) -> b = b' && p = p') l with
    | Some (_, _, s, _, _) -> s
    | None -> 0.0
  in
  let pmax = List.fold_left max 1 cpus in
  note "shape checks:";
  note "  - two-way associativity does not remove CDPC's advantage (tomcatv @%d: %.2fx, swim: %.2fx)"
    pmax (sp s2 "tomcatv" pmax) (sp s2 "swim" pmax);
  note "  - with the 4MB cache, benefits appear at fewer CPUs (tomcatv @4: %.2fx vs 1MB)"
    (sp s4 "tomcatv" 4);
  note "  - applu (31MB) shows benefit only with the larger cache: 4MB @%d %.2fx" pmax
    (sp s4 "applu" pmax)

(* ---------- Figure 8 ---------- *)

let figure8 () =
  section (Printf.sprintf "Figure 8: CDPC combined with compiler-inserted prefetching (scale %d)" scale);
  let benches = [ "tomcatv"; "swim"; "hydro2d"; "su2cor"; "applu" ] in
  let cpus = if fast then [ 4; 16 ] else [ 4; 8; 16 ] in
  prefill
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun n_cpus ->
             [
               exp ~bench ~machine:"sgi" ~n_cpus ~policy:Run.Page_coloring ();
               exp ~bench ~machine:"sgi" ~n_cpus ~policy:Run.Page_coloring ~prefetch:true ();
               exp ~bench ~machine:"sgi" ~n_cpus ~policy:cdpc ();
               exp ~bench ~machine:"sgi" ~n_cpus ~policy:cdpc ~prefetch:true ();
             ])
           cpus)
       benches);
  let t =
    Table.create
      ~title:"speedup over page coloring without prefetching (pc+pf / cdpc / cdpc+pf)"
      ("benchmark" :: List.map string_of_int cpus)
  in
  let tom4 = ref (1.0, 1.0, 1.0) in
  List.iter
    (fun bench ->
      Table.add_row t
        (bench
        :: List.map
             (fun n_cpus ->
               let base = experiment ~bench ~machine:"sgi" ~n_cpus ~policy:Run.Page_coloring () in
               let pf = experiment ~bench ~machine:"sgi" ~n_cpus ~policy:Run.Page_coloring ~prefetch:true () in
               let cd = experiment ~bench ~machine:"sgi" ~n_cpus ~policy:cdpc () in
               let cdpf = experiment ~bench ~machine:"sgi" ~n_cpus ~policy:cdpc ~prefetch:true () in
               let s r = Report.speedup ~base r in
               if bench = "tomcatv" && n_cpus = 4 then tom4 := (s pf, s cd, s cdpf);
               Printf.sprintf "%.2f / %.2f / %.2f" (s pf) (s cd) (s cdpf))
             cpus))
    benches;
  Table.print t;
  let spf, scd, sboth = !tom4 in
  note "shape checks:";
  note "  - complementarity (paper: tomcatv@4 — CDPC 1.29x, pf 1.24x, combined 1.88x):";
  note "      tomcatv@4 here — pf %.2fx, CDPC %.2fx, combined %.2fx" spf scd sboth;
  note "  - with few CPUs capacity dominates (prefetch matters more); with many CPUs the";
  note "    aggregate cache grows and CDPC matters more;";
  note "  - applu's tiled loops pipeline prefetches poorly and large strides drop on TLB misses."

(* ---------- Figure 9 and Table 2 ---------- *)

let alpha_policies =
  [
    ("bh-unaligned", Run.Bin_hopping_unaligned);
    ("bin-hopping", Run.Bin_hopping);
    ("page-coloring", Run.Page_coloring);
    ("cdpc", cdpc_touch);
  ]

let figure9 () =
  section
    (Printf.sprintf
       "Figure 9: AlphaServer-style validation (4MB-DM machine / scale %d; CDPC realized by \
        page-touch order on the bin-hopping kernel, as on Digital UNIX)"
       scale);
  prefill
    (List.concat_map
       (fun (d : Spec.descriptor) ->
         List.concat_map
           (fun n_cpus ->
             List.map
               (fun (_, policy) -> exp ~bench:d.name ~machine:"alpha" ~n_cpus ~policy ())
               alpha_policies)
           alpha_cpu_counts)
       Spec.all);
  let t =
    Table.create
      ~title:"wall time (cycles x 1e6) per policy"
      ("benchmark/cpus"
      :: List.concat_map
           (fun p -> List.map (fun (n, _) -> Printf.sprintf "%s@%d" n p) alpha_policies)
           alpha_cpu_counts)
  in
  List.iter
    (fun (d : Spec.descriptor) ->
      Table.add_row t
        (d.name
        :: List.concat_map
             (fun n_cpus ->
               List.map
                 (fun (_, policy) ->
                   let r = experiment ~bench:d.name ~machine:"alpha" ~n_cpus ~policy () in
                   Printf.sprintf "%.0f" (r.Report.wall_cycles /. 1e6))
                 alpha_policies)
             alpha_cpu_counts))
    Spec.all;
  Table.print t;
  let pmax = List.fold_left max 1 alpha_cpu_counts in
  let wall bench policy =
    (experiment ~bench ~machine:"alpha" ~n_cpus:pmax ~policy ()).Report.wall_cycles
  in
  note "shape checks at %d CPUs:" pmax;
  List.iter
    (fun bench ->
      let bh = wall bench Run.Bin_hopping
      and pc = wall bench Run.Page_coloring
      and cd = wall bench cdpc_touch in
      note "  - %s: CDPC %.2fx over bin hopping, %.2fx over page coloring (paper: %s)" bench
        (bh /. cd) (pc /. cd)
        (match bench with
        | "swim" -> "1.4x / 2.6x"
        | "tomcatv" -> "1.3x / 2.2x"
        | "applu" -> "1.2x / 1.06x"
        | _ -> "n/a"))
    [ "swim"; "tomcatv"; "applu" ];
  let insensitive =
    List.filter
      (fun b ->
        let ws = List.map (fun (_, p) -> wall b p) alpha_policies in
        let lo = List.fold_left min infinity ws and hi = List.fold_left max 0.0 ws in
        hi /. lo < 1.15)
      Spec.names
  in
  note "  - policy-insensitive benchmarks (paper: su2cor, wave5, apsi, fpppp): %s"
    (String.concat ", " insensitive)

let table2 () =
  section "Table 2: synthetic SPEC95fp-style ratings on the AlphaServer-style machine";
  let pmax = List.fold_left max 1 alpha_cpu_counts in
  prefill
    (List.concat_map
       (fun (d : Spec.descriptor) ->
         exp ~bench:d.name ~machine:"alpha" ~n_cpus:1 ~policy:Run.Page_coloring ()
         :: List.concat_map
              (fun n_cpus ->
                List.map
                  (fun (_, policy) -> exp ~bench:d.name ~machine:"alpha" ~n_cpus ~policy ())
                  alpha_policies)
              alpha_cpu_counts)
       Spec.all);
  (* reference times: uniprocessor page-coloring walls, reweighted by the
     real SPEC95 reference-time ratios *)
  let refs =
    Pcolor.Stats.Spec_ratio.make_references
      (List.map
         (fun (d : Spec.descriptor) ->
           ( d.name,
             (experiment ~bench:d.name ~machine:"alpha" ~n_cpus:1 ~policy:Run.Page_coloring ())
               .Report.wall_cycles ))
         Spec.all)
  in
  let t =
    Table.create
      ~title:(Printf.sprintf "per-benchmark ratios at %d CPUs (reference / measured wall)" pmax)
      ("benchmark" :: List.map fst alpha_policies)
  in
  let ratios =
    List.map
      (fun (name, policy) ->
        ( name,
          List.map
            (fun (d : Spec.descriptor) ->
              let r = experiment ~bench:d.name ~machine:"alpha" ~n_cpus:pmax ~policy () in
              ( d.name,
                Pcolor.Stats.Spec_ratio.ratio ~ref_cycles:(refs d.name)
                  ~measured_cycles:r.Report.wall_cycles ))
            Spec.all ))
      alpha_policies
  in
  List.iter
    (fun (d : Spec.descriptor) ->
      Table.add_row t
        (d.name
        :: List.map (fun (_, rs) -> Table.fcell ~prec:1 (List.assoc d.name rs)) ratios))
    Spec.all;
  let ratings =
    List.map
      (fun (name, rs) -> (name, Pcolor.Stats.Spec_ratio.rating (List.map snd rs)))
      ratios
  in
  Table.add_separator t;
  Table.add_row t ("RATING (geomean)" :: List.map (fun (_, g) -> Table.fcell ~prec:1 g) ratings);
  Table.print t;
  let g name = List.assoc name ratings in
  note "shape checks:";
  note "  - CDPC rating vs bin hopping: %+.0f%% (paper: +8%%)"
    (100.0 *. ((g "cdpc" /. g "bin-hopping") -. 1.0));
  note "  - CDPC rating vs page coloring: %+.0f%% (paper: +20%%)"
    (100.0 *. ((g "cdpc" /. g "page-coloring") -. 1.0));
  note "  - alignment matters: aligned bin hopping vs unaligned: %+.0f%%"
    (100.0 *. ((g "bin-hopping" /. g "bh-unaligned") -. 1.0));
  let cdpc_speedup p =
    Pcolor.Stats.Spec_ratio.rating
      (List.map
         (fun (d : Spec.descriptor) ->
           let uni =
             (experiment ~bench:d.name ~machine:"alpha" ~n_cpus:1 ~policy:Run.Page_coloring ())
               .Report.wall_cycles
           in
           let r = experiment ~bench:d.name ~machine:"alpha" ~n_cpus:p ~policy:cdpc_touch () in
           uni /. r.Report.wall_cycles)
         Spec.all)
  in
  if List.mem 4 alpha_cpu_counts then
    note "  - geometric-mean improvement over uniprocessor: %.1fx at 4 CPUs, %.1fx at %d (paper: 2.9x, 4.2x)"
      (cdpc_speedup 4) (cdpc_speedup pmax) pmax
