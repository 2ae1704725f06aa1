(* Tests for overhead accounting, weighted totals and report math. *)

module Overheads = Pcolor.Stats.Overheads
module Totals = Pcolor.Stats.Totals
module Report = Pcolor.Stats.Report
module Spec_ratio = Pcolor.Stats.Spec_ratio

let test_overheads_accumulate () =
  let o = Overheads.create ~n_cpus:2 in
  Overheads.add_imbalance o ~cpu:0 10.0;
  Overheads.add_imbalance o ~cpu:1 5.0;
  Overheads.add_sequential o ~cpu:1 3.0;
  Overheads.add_suppressed o ~cpu:0 2.0;
  Overheads.add_sync o ~cpu:0 1.0;
  let imb, seq, sup, sync = Overheads.totals o in
  Alcotest.(check (float 1e-9)) "imbalance" 15.0 imb;
  Alcotest.(check (float 1e-9)) "sequential" 3.0 seq;
  Alcotest.(check (float 1e-9)) "suppressed" 2.0 sup;
  Alcotest.(check (float 1e-9)) "sync" 1.0 sync

let test_barrier_cost_monotone () =
  Alcotest.(check bool) "p=1 cheap" true (Overheads.barrier_cost ~n_cpus:1 < Overheads.barrier_cost ~n_cpus:2);
  Alcotest.(check bool) "grows with p" true
    (Overheads.barrier_cost ~n_cpus:4 <= Overheads.barrier_cost ~n_cpus:16)

(* [set t name v] writes one counter column of an accumulator. *)
let set (t : Totals.t) name v = t.counters.(Pcolor.Memsim.Machine.column name) <- v

let test_totals_accumulate_math () =
  let start = Totals.create ~n_cpus:2 in
  let fin = Totals.create ~n_cpus:2 in
  set fin "instructions" 100.0;
  set fin "stall.conflict_cycles" 50.0;
  set fin "stall.onchip_cycles" 10.0;
  fin.time.(0) <- 300.0;
  fin.time.(1) <- 200.0;
  set fin "bus.data_cycles" 40.0;
  let into = Totals.create ~n_cpus:2 in
  Totals.accumulate ~into ~start ~fin ~f:2.0 ~weight:3.0;
  let get = Totals.get into in
  Alcotest.(check (float 1e-9)) "instructions x weight" 300.0 (get "instructions");
  Alcotest.(check (float 1e-9)) "stall x f x weight" 300.0 (get "stall.conflict_cycles");
  Alcotest.(check (float 1e-9)) "onchip stall x weight, unstretched" 30.0
    (get "stall.onchip_cycles");
  Alcotest.(check (float 1e-9)) "time x weight (already stretched)" 900.0 into.time.(0);
  Alcotest.(check (float 1e-9)) "wall = max dt x weight" 900.0 into.wall;
  Alcotest.(check (float 1e-9)) "bus x weight" 120.0 (get "bus.data_cycles");
  Alcotest.(check (float 1e-9)) "total mem stall" 330.0 (Totals.total_mem_stall into);
  Alcotest.(check (float 1e-9)) "sum time" 1500.0 (Totals.sum_time into)

let test_totals_snapshot_of_machine () =
  let m = Pcolor.Memsim.Machine.create (Helpers.tiny_cfg ()) in
  let ident ~cpu:_ ~vpage = (vpage, 0) in
  Pcolor.Memsim.Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  Pcolor.Memsim.Machine.tick m ~cpu:0 7;
  let ov = Overheads.create ~n_cpus:2 in
  let t = Totals.snapshot m ov in
  Alcotest.(check (float 1e-9)) "instructions" 7.0 (Totals.get t "instructions");
  Alcotest.(check (float 1e-9)) "one miss" 1.0
    (List.fold_left
       (fun acc c -> acc +. Totals.get t ("l2_miss." ^ Pcolor.Memsim.Mclass.to_string c))
       0.0 Pcolor.Memsim.Mclass.all);
  Alcotest.(check bool) "time tracked" true (t.time.(0) > 0.0)

let mk_report ?(mem_stall_class = 2) () =
  let t = Totals.create ~n_cpus:2 in
  let cls = Pcolor.Memsim.Mclass.to_string (List.nth Pcolor.Memsim.Mclass.all mem_stall_class) in
  set t "instructions" 1000.0;
  set t ("stall." ^ cls ^ "_cycles") 500.0;
  set t "stall.onchip_cycles" 100.0;
  set t ("l2_miss." ^ cls) 5.0;
  set t "l1_misses" 10.0;
  t.time.(0) <- 2000.0;
  t.time.(1) <- 1500.0;
  t.wall <- 2000.0;
  set t "bus.data_cycles" 600.0;
  set t "bus.writeback_cycles" 200.0;
  set t "kernel_cycles" 50.0;
  t.ov_imbalance.(1) <- 500.0;
  Report.of_totals ~benchmark:"x" ~machine:"tiny" ~n_cpus:2 ~policy:"page-coloring"
    ~prefetch:false ~page_faults:3 ~hints_honored:2 ~hints_fallback:1 t

let test_report_math () =
  let r = mk_report () in
  Alcotest.(check (float 1e-9)) "mcpi" 0.6 r.mcpi;
  Alcotest.(check (float 1e-9)) "mcpi onchip" 0.1 r.mcpi_onchip;
  Alcotest.(check (float 1e-9)) "conflict mcpi" 0.5 r.mcpi_by_class.(2);
  Alcotest.(check (float 1e-9)) "miss rate" 0.5 r.l2_miss_rate;
  Alcotest.(check (float 1e-9)) "combined" 3500.0 r.combined_cycles;
  Alcotest.(check (float 1e-9)) "bus occupancy" 0.4 r.bus_occupancy;
  Alcotest.(check (float 1e-9)) "data frac" 0.75 r.bus_data_frac;
  Alcotest.(check (float 1e-9)) "conflict misses" 5.0 (Report.conflict_misses r);
  Alcotest.(check (float 1e-9)) "replacement misses" 5.0 (Report.replacement_misses r);
  Alcotest.(check (float 1e-9)) "total overhead" 550.0 (Report.total_overhead r)

let test_report_speedup () =
  let base = mk_report () in
  let fast = { base with wall_cycles = 500.0 } in
  Alcotest.(check (float 1e-9)) "speedup" 4.0 (Report.speedup ~base fast)

let test_spec_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 2.0 (Spec_ratio.ratio ~ref_cycles:100.0 ~measured_cycles:50.0);
  Alcotest.(check (float 1e-9)) "rating geomean" 2.0 (Spec_ratio.rating [ 1.0; 4.0 ]);
  let refs = Spec_ratio.make_references [ ("swim", 1000.0); ("tomcatv", 1000.0) ] in
  (* swim's SPEC weight (8600) is larger than tomcatv's (3700) *)
  Alcotest.(check bool) "weights preserved" true (refs "swim" > refs "tomcatv");
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (refs "nope");
       false
     with Invalid_argument _ -> true)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_report_pp_renders () =
  let r = mk_report () in
  let s = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool) "mentions policy" true (contains ~needle:"page-coloring" s);
  Alcotest.(check bool) "mentions conflict" true (contains ~needle:"conflict" s)

(* ---- trial statistics (Obs.Stat): pinned vectors ---- *)

module Stat = Pcolor.Obs.Stat

let test_stat_median () =
  Alcotest.(check (float 1e-9)) "even n" 2.5 (Stat.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "odd n, unsorted" 2.0 (Stat.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Stat.median [| 7.0 |]);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Stat.median: empty trial vector") (fun () ->
      ignore (Stat.median [||]))

let test_stat_mad () =
  (* median 3, abs deviations [2;1;0;1;97] -> mad 1: the outlier is
     invisible, which is the whole point of using MAD for noisy trials *)
  Alcotest.(check (float 1e-9)) "outlier-immune" 1.0
    (Stat.mad [| 1.0; 2.0; 3.0; 4.0; 100.0 |]);
  Alcotest.(check (float 1e-9)) "explicit center" 2.0
    (Stat.mad ~center:0.0 [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "constant vector" 0.0 (Stat.mad [| 5.0; 5.0; 5.0 |])

let test_stat_ci_ranks () =
  (* sign-test table: largest k with P(Binom(n,1/2) <= k-1) <= 0.025 *)
  List.iter
    (fun (n, expect) ->
      let got = Stat.ci_ranks ~n in
      Alcotest.(check (pair int int)) (Printf.sprintf "n=%d" n) expect got)
    [ (1, (1, 1)); (5, (1, 5)); (6, (1, 6)); (8, (1, 8)); (12, (3, 10)); (20, (6, 15)) ]

let test_stat_summarize () =
  let s = Stat.summarize [| 5.0; 1.0; 3.0; 2.0; 4.0; 6.0; 8.0; 7.0 |] in
  Alcotest.(check int) "n" 8 s.Stat.n;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stat.min_v;
  Alcotest.(check (float 1e-9)) "max" 8.0 s.Stat.max_v;
  Alcotest.(check (float 1e-9)) "median" 4.5 s.Stat.median;
  (* deviations from 4.5: [3.5;2.5;1.5;.5;.5;1.5;2.5;3.5] -> median 2.0 *)
  Alcotest.(check (float 1e-9)) "mad" 2.0 s.Stat.mad;
  (* n=8 ranks (1,8): the full range *)
  Alcotest.(check (float 1e-9)) "ci_lo" 1.0 s.Stat.ci_lo;
  Alcotest.(check (float 1e-9)) "ci_hi" 8.0 s.Stat.ci_hi

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "overheads accumulate" `Quick test_overheads_accumulate;
        Alcotest.test_case "barrier cost monotone" `Quick test_barrier_cost_monotone;
        Alcotest.test_case "totals accumulate math" `Quick test_totals_accumulate_math;
        Alcotest.test_case "totals snapshot" `Quick test_totals_snapshot_of_machine;
        Alcotest.test_case "report math" `Quick test_report_math;
        Alcotest.test_case "report speedup" `Quick test_report_speedup;
        Alcotest.test_case "spec ratio" `Quick test_spec_ratio;
        Alcotest.test_case "report pp" `Quick test_report_pp_renders;
      ] );
    ( "stats.trials",
      [
        Alcotest.test_case "median pins" `Quick test_stat_median;
        Alcotest.test_case "mad pins" `Quick test_stat_mad;
        Alcotest.test_case "sign-test CI ranks" `Quick test_stat_ci_ranks;
        Alcotest.test_case "summarize pins" `Quick test_stat_summarize;
      ] );
  ]
