(* Tests for the execution engine, representative windows, and the
   end-to-end experiment runner — including the paper's §5.2 objective
   as an executable theorem: CDPC eliminates conflict misses when each
   processor's data fits in its cache. *)

module Run = Pcolor.Runtime.Run
module Engine = Pcolor.Runtime.Engine
module Window = Pcolor.Runtime.Window
module Ir = Pcolor.Comp.Ir
module Report = Pcolor.Stats.Report

let test_window_plan () =
  let p = Pcolor.Workloads.Turb3d.program ~scale:16 () in
  let steps = Window.plan ~cap:2 p in
  Alcotest.(check int) "one step per steady phase" 4 (List.length steps);
  List.iter2
    (fun (s : Window.step) (_, occ) ->
      Alcotest.(check int) "capped" (min 2 occ) s.simulate;
      Alcotest.(check (float 1e-9)) "weight" (float_of_int occ /. float_of_int s.simulate) s.weight)
    steps p.steady;
  Alcotest.check_raises "bad cap" (Invalid_argument "Window.plan: cap must be positive") (fun () ->
      ignore (Window.plan ~cap:0 p))

let test_window_warmup () =
  let p = Pcolor.Workloads.Turb3d.program ~scale:16 () in
  let w = Window.warmup_plan p in
  List.iter (fun (s : Window.step) -> Alcotest.(check int) "once" 1 s.simulate) w

let setup ?(policy = Run.Page_coloring) ?(n_cpus = 2) ?(prefetch = false) ?(cap = 2) () =
  let cfg = Helpers.tiny_cfg ~n_cpus () in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy) with
    prefetch;
    cap;
    check_bounds = true;
    collect_trace = true;
  }

let test_run_basic () =
  let o = Run.run (setup ()) in
  let r = o.report in
  Alcotest.(check int) "cpus" 2 r.n_cpus;
  Alcotest.(check string) "policy label" "page-coloring" r.policy;
  Alcotest.(check bool) "did work" true (r.instructions > 0.0);
  Alcotest.(check bool) "wall positive" true (r.wall_cycles > 0.0);
  Alcotest.(check bool) "combined >= wall" true (r.combined_cycles >= r.wall_cycles);
  Alcotest.(check bool) "faulted pages" true (r.page_faults > 0)

let test_run_deterministic () =
  let r1 = (Run.run (setup ~policy:Run.Bin_hopping ())).report in
  let r2 = (Run.run (setup ~policy:Run.Bin_hopping ())).report in
  Alcotest.(check (float 0.0)) "same wall" r1.wall_cycles r2.wall_cycles;
  Alcotest.(check (float 0.0)) "same mcpi" r1.mcpi r2.mcpi;
  Alcotest.(check (float 0.0)) "same misses" (Report.replacement_misses r1)
    (Report.replacement_misses r2)

let test_run_seed_changes_bin_hopping () =
  let s1 = { (setup ~policy:Run.Bin_hopping ()) with seed = 1 } in
  let s2 = { (setup ~policy:Run.Bin_hopping ()) with seed = 2 } in
  let r1 = (Run.run s1).report and r2 = (Run.run s2).report in
  (* the fault race is seeded: different seeds may (and here do) give
     different colorings; page coloring is seed-independent *)
  let p1 = (Run.run { s1 with policy = Run.Page_coloring }).report in
  let p2 = (Run.run { s2 with policy = Run.Page_coloring }).report in
  Alcotest.(check (float 0.0)) "page coloring seed-independent" p1.wall_cycles p2.wall_cycles;
  ignore (r1, r2)

let test_trace_within_footprint () =
  let o = Run.run (setup ()) in
  let cfg = Helpers.tiny_cfg () in
  let fp_pages cpu =
    Pcolor.Comp.Footprint.pages_of
      (Pcolor.Comp.Footprint.program_cpu o.program ~n_cpus:2 ~cpu)
      ~page_size:cfg.page_size
  in
  let fp = Array.init 2 fp_pages in
  List.iter
    (fun (vpage, cpu) ->
      Alcotest.(check bool)
        (Printf.sprintf "page %d cpu %d in footprint" vpage cpu)
        true
        (List.mem vpage fp.(cpu)))
    o.trace

let test_footprint_within_trace () =
  (* for this dense program the interval footprint is exact, so the
     trace covers it completely too *)
  let o = Run.run (setup ()) in
  let cfg = Helpers.tiny_cfg () in
  List.iter
    (fun cpu ->
      let fp =
        Pcolor.Comp.Footprint.pages_of
          (Pcolor.Comp.Footprint.program_cpu o.program ~n_cpus:2 ~cpu)
          ~page_size:cfg.page_size
      in
      List.iter
        (fun pg -> Alcotest.(check bool) "footprint page traced" true (List.mem (pg, cpu) o.trace))
        fp)
    [ 0; 1 ]

let test_bounds_check_catches_oob () =
  let cfg = Helpers.tiny_cfg () in
  let make_bad () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr2 c "A" ~rows:4 ~cols:8 in
    let nest =
      Ir.make_nest ~label:"oob" ~kind:Ir.Sequential ~bounds:[| 4; 8 |]
        ~refs:[ Ir.ref_to a ~coeffs:[| 8; 1 |] ~offset:5 ~write:false ]
        ()
    in
    Pcolor.Workloads.Gen.program c ~name:"bad"
      ~phases:[ { Ir.pname = "x"; nests = [ nest ] } ]
      ~steady:[ (0, 1) ] ()
  in
  let s =
    {
      (Run.default_setup ~cfg ~make_program:make_bad ~policy:Run.Page_coloring) with
      check_bounds = true;
    }
  in
  Alcotest.(check bool) "raises on out-of-bounds" true
    (try
       ignore (Run.run s);
       false
     with Invalid_argument _ -> true)

let test_cdpc_honors_all_hints () =
  let o = Run.run (setup ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = false }) ()) in
  Alcotest.(check int) "no fallbacks under ample memory" 0 o.report.hints_fallback;
  (* ground truth: every hinted page landed on its advised color *)
  match o.hints_info with
  | None -> Alcotest.fail "cdpc must produce hints"
  | Some info ->
    let placed = info.placed in
    Alcotest.(check bool) "some placement" true (List.length placed > 0)

let test_cdpc_via_touch_equals_madvise () =
  (* the Digital UNIX page-touch trick must realize the same colors as
     the madvise-style kernel extension *)
  let run policy =
    let o = Run.run (setup ~policy ()) in
    let k = o.kernel in
    List.sort compare
      (List.filter_map
         (fun (vp, _) -> Option.map (fun c -> (vp, c)) (Pcolor.Vm.Kernel.color_of_vpage k vp))
         o.trace)
  in
  let madvise = run (Run.Cdpc { fallback = `Page_coloring; via_touch = false }) in
  let touch = run (Run.Cdpc { fallback = `Bin_hopping; via_touch = true }) in
  Alcotest.(check bool) "same page->color map" true (madvise = touch)

(* The paper's §5.2 objective 1 as a theorem: with each CPU's data
   fitting its external cache and disjoint partitions, CDPC leaves no
   conflict misses in the steady state. *)
let test_cdpc_eliminates_conflicts_when_fitting () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  (* 2 arrays x 4 rows x 128 cols x 8B = 8 KB; each CPU's half (4 KB,
     plus page-sharing slop from line-granular padding) fits the 8 KB
     cache with room to spare *)
  let s =
    {
      (Run.default_setup ~cfg
         ~make_program:(fun () -> Helpers.figure4_program ~rows:4 ~cols:128 ())
         ~policy:(Run.Cdpc { fallback = `Page_coloring; via_touch = false }))
      with
      check_bounds = true;
    }
  in
  let r = (Run.run s).report in
  Alcotest.(check (float 0.0)) "no conflict misses" 0.0 (Report.conflict_misses r);
  Alcotest.(check (float 0.0)) "no capacity misses" 0.0 r.l2_misses_by_class.(1)

let test_memory_pressure_fallback_completes () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let p = Helpers.figure4_program () in
  let pages_needed = 2 + (Ir.data_set_bytes p / cfg.page_size) + 4 in
  (* random colors demand unevenly, so a barely-sufficient pool forces
     the allocator off the preferred color; the run must still finish *)
  let s =
    {
      (Run.default_setup ~cfg
         ~make_program:(fun () -> Helpers.figure4_program ())
         ~policy:Run.Random_colors)
      with
      mem_frames = Some pages_needed;
    }
  in
  let r = (Run.run s).report in
  Alcotest.(check bool) "run completed" true (r.wall_cycles > 0.0);
  Alcotest.(check bool) "pressure forced fallbacks" true (r.hints_fallback > 0);
  (* CDPC under the same pressure also completes *)
  let s' = { s with policy = Run.Cdpc { fallback = `Page_coloring; via_touch = false } } in
  let r' = (Run.run s').report in
  Alcotest.(check bool) "cdpc under pressure completes" true (r'.wall_cycles > 0.0)

let test_overhead_sequential () =
  (* a sequential-only program: slaves idle -> sequential overhead about
     (p-1)x the master's time *)
  let cfg = Helpers.tiny_cfg ~n_cpus:4 () in
  let mk () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr1 c "A" 1024 in
    let nest =
      Ir.make_nest ~label:"seq" ~kind:Ir.Sequential ~bounds:[| 1024 |]
        ~refs:[ Ir.ref_to a ~coeffs:[| 1 |] ~offset:0 ~write:false ]
        ~body_instr:8 ()
    in
    Pcolor.Workloads.Gen.program c ~name:"seqonly"
      ~phases:[ { Ir.pname = "s"; nests = [ nest ] } ]
      ~steady:[ (0, 4) ] ()
  in
  let r =
    (Run.run (Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring)).report
  in
  Alcotest.(check bool) "sequential overhead dominates" true
    (r.ov_sequential > 0.0 && r.ov_suppressed = 0.0);
  (* sequential ~ 3x the master's busy time *)
  let master_busy = r.exec_cycles +. r.mem_stall_cycles in
  Alcotest.(check bool) "about (p-1) x busy" true
    (r.ov_sequential >= 2.0 *. master_busy && r.ov_sequential <= 4.0 *. master_busy)

let test_overhead_suppressed () =
  let cfg = Helpers.tiny_cfg ~n_cpus:4 () in
  let mk () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr1 c "A" 1024 in
    let nest =
      Ir.make_nest ~label:"sup" ~kind:Ir.Suppressed ~bounds:[| 1024 |]
        ~refs:[ Ir.ref_to a ~coeffs:[| 1 |] ~offset:0 ~write:false ]
        ()
    in
    Pcolor.Workloads.Gen.program c ~name:"suponly"
      ~phases:[ { Ir.pname = "s"; nests = [ nest ] } ]
      ~steady:[ (0, 4) ] ()
  in
  let r = (Run.run (Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring)).report in
  Alcotest.(check bool) "suppressed accounted" true (r.ov_suppressed > 0.0)

let test_load_imbalance_applu_style () =
  (* 33 iterations over 16 CPUs: blocked partition leaves a visible
     imbalance (the paper's applu observation) *)
  let cfg = Helpers.tiny_cfg ~n_cpus:16 () in
  let mk () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr2 c "A" ~rows:33 ~cols:64 in
    let nest =
      Ir.make_nest ~label:"imb" ~kind:Pcolor.Workloads.Gen.parallel_blocked ~bounds:[| 33; 64 |]
        ~refs:[ Pcolor.Workloads.Gen.full2 a ~write:true ]
        ~body_instr:16 ()
    in
    Pcolor.Workloads.Gen.program c ~name:"imb"
      ~phases:[ { Ir.pname = "p"; nests = [ nest ] } ]
      ~steady:[ (0, 4) ] ()
  in
  let r = (Run.run (Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring)).report in
  Alcotest.(check bool) "imbalance visible" true (r.ov_imbalance > 0.2 *. r.exec_cycles)

let test_prefetch_reduces_stall () =
  let cfg = Helpers.tiny_cfg ~n_cpus:1 () in
  (* streaming program much larger than the cache: prefetch should hide
     a noticeable part of the memory stall *)
  let mk () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr2 c "A" ~rows:64 ~cols:1024 in
    let nest =
      Ir.make_nest ~label:"stream" ~kind:Pcolor.Workloads.Gen.parallel_even
        ~bounds:[| 64; 1024 |]
        ~refs:[ Pcolor.Workloads.Gen.full2 a ~write:false ]
        ~body_instr:8 ()
    in
    Pcolor.Workloads.Gen.program c ~name:"stream"
      ~phases:[ { Ir.pname = "s"; nests = [ nest ] } ]
      ~steady:[ (0, 2) ] ()
  in
  let base = Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring in
  let plain = (Run.run base).report in
  let pf = (Run.run { base with prefetch = true }).report in
  Alcotest.(check bool) "prefetches issued" true (pf.pf_issued > 0.0);
  Alcotest.(check bool) "some useful" true (pf.pf_useful > 0.0);
  Alcotest.(check bool) "stall reduced" true (pf.mcpi < 0.9 *. plain.mcpi)

let test_prefetch_dropped_on_tlb_miss () =
  let cfg = Helpers.tiny_cfg ~n_cpus:1 () in
  (* large-stride walk: prefetch targets are usually on unmapped pages *)
  let mk () =
    let c = Pcolor.Workloads.Gen.ctx () in
    let a = Pcolor.Workloads.Gen.arr2 c "A" ~rows:256 ~cols:256 in
    let nest =
      Ir.make_nest ~label:"stride" ~kind:Pcolor.Workloads.Gen.parallel_even
        ~bounds:[| 256; 256 |]
        ~refs:[ Ir.ref_to a ~coeffs:[| 1; 256 |] ~offset:0 ~write:false ]
        ~body_instr:2 ()
    in
    Pcolor.Workloads.Gen.program c ~name:"stride"
      ~phases:[ { Ir.pname = "s"; nests = [ nest ] } ]
      ~steady:[ (0, 2) ] ()
  in
  let r =
    (Run.run { (Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring) with prefetch = true })
      .report
  in
  Alcotest.(check bool) "drops happened" true (r.pf_dropped > 0.0)

let test_all_benchmarks_build_and_run_small () =
  List.iter
    (fun (d : Pcolor.Workloads.Spec.descriptor) ->
      let p = d.build ~scale:64 () in
      Ir.check_program p;
      Alcotest.(check bool) (d.name ^ " has data") true (Ir.data_set_bytes p > 0))
    Pcolor.Workloads.Spec.all

let test_spec_catalog () =
  Alcotest.(check int) "ten benchmarks" 10 (List.length Pcolor.Workloads.Spec.all);
  Alcotest.(check int) "figure 6 omits two" 8 (List.length Pcolor.Workloads.Spec.figure6_benchmarks);
  Alcotest.(check bool) "find works" true ((Pcolor.Workloads.Spec.find "swim").table1_mb = 14.0);
  Alcotest.(check bool) "find unknown raises" true
    (try
       ignore (Pcolor.Workloads.Spec.find "nope");
       false
     with Invalid_argument _ -> true)

let suite =
  [
    ( "runtime",
      [
        Alcotest.test_case "window plan" `Quick test_window_plan;
        Alcotest.test_case "window warmup" `Quick test_window_warmup;
        Alcotest.test_case "run basic" `Quick test_run_basic;
        Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
        Alcotest.test_case "seeds and policies" `Quick test_run_seed_changes_bin_hopping;
        Alcotest.test_case "trace within footprint" `Quick test_trace_within_footprint;
        Alcotest.test_case "footprint within trace" `Quick test_footprint_within_trace;
        Alcotest.test_case "bounds check" `Quick test_bounds_check_catches_oob;
        Alcotest.test_case "cdpc honors hints" `Quick test_cdpc_honors_all_hints;
        Alcotest.test_case "via-touch = madvise" `Quick test_cdpc_via_touch_equals_madvise;
        Alcotest.test_case "cdpc conflict-free when fitting" `Quick
          test_cdpc_eliminates_conflicts_when_fitting;
        Alcotest.test_case "memory pressure fallback" `Quick test_memory_pressure_fallback_completes;
        Alcotest.test_case "sequential overhead" `Quick test_overhead_sequential;
        Alcotest.test_case "suppressed overhead" `Quick test_overhead_suppressed;
        Alcotest.test_case "applu-style imbalance" `Quick test_load_imbalance_applu_style;
        Alcotest.test_case "prefetch reduces stall" `Quick test_prefetch_reduces_stall;
        Alcotest.test_case "prefetch TLB drops" `Quick test_prefetch_dropped_on_tlb_miss;
        Alcotest.test_case "all benchmarks build" `Quick test_all_benchmarks_build_and_run_small;
        Alcotest.test_case "spec catalog" `Quick test_spec_catalog;
      ] );
  ]
