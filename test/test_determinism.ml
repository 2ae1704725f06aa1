(* Determinism guarantees behind the performance work:

   1. re-running an identical setup reproduces the report bit-for-bit;
   2. the domain pool (jobs=4) yields byte-identical rendered reports to
      strictly sequential execution (jobs=1) — the property the
      parallel harness relies on;
   3. the hot-path refactors (dense bitset for [seen], prefetch ring,
      TLB translation memo) leave the per-class miss counts at the
      golden values captured before the refactor, so the optimisations
      are provably behaviour-preserving;
   4. unit coverage for the new Bitset and Pool primitives themselves. *)

module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report
module Config = Pcolor.Memsim.Config
module Mclass = Pcolor.Memsim.Mclass
module Bitset = Pcolor.Util.Bitset
module Pool = Pcolor.Util.Pool
module Spec = Pcolor.Workloads.Spec

let render r = Format.asprintf "%a" Report.pp r

(* ---- 1. identical setups, identical reports ---- *)

let tiny_setup ?(policy = Run.Page_coloring) ?(n_cpus = 2) () =
  let cfg = Helpers.tiny_cfg ~n_cpus () in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy) with
    check_bounds = true;
  }

let test_rerun_identical () =
  let mk () = Run.run (tiny_setup ~policy:Run.Bin_hopping ()) in
  let r1 = (mk ()).Run.report and r2 = (mk ()).Run.report in
  Alcotest.(check string) "rendered reports identical" (render r1) (render r2)

(* ---- 2. pool output equals sequential output ---- *)

(* A small batch of genuinely distinct experiments on the tiny machine:
   cheap enough for the test suite, diverse enough that a scheduling
   bug (results landing in the wrong slot, shared state between
   domains) would show up as a diff. *)
let batch_setups () =
  List.concat_map
    (fun policy -> List.map (fun n_cpus -> tiny_setup ~policy ~n_cpus ()) [ 1; 2 ])
    [ Run.Page_coloring; Run.Bin_hopping; Run.Random_colors ]

let run_batch ~jobs =
  Pool.map ~jobs (fun s -> render (Run.run s).Run.report) (batch_setups ())

(* The bench harness's pattern (bench/mix.ml, Harness.prefill): tasks
   are submitted costliest first, so not in result order, and each
   writes its own index slot. *)
let run_batch_slots ~jobs =
  let setups = Array.of_list (batch_setups ()) in
  let slots = Array.make (Array.length setups) "" in
  let cost i = setups.(i).Run.cfg.Config.n_cpus in
  List.init (Array.length setups) Fun.id
  |> List.stable_sort (fun a b -> compare (cost b) (cost a))
  |> List.map (fun i () -> slots.(i) <- render (Run.run setups.(i)).Run.report)
  |> Pool.run_all ~jobs;
  Array.to_list slots

let test_pool_matches_sequential () =
  let seq = run_batch ~jobs:1 in
  Alcotest.(check (list string)) "jobs=4 output equals jobs=1" seq (run_batch ~jobs:4);
  Alcotest.(check (list string)) "cost-sorted run_all into slots, jobs=1" seq
    (run_batch_slots ~jobs:1);
  Alcotest.(check (list string)) "cost-sorted run_all into slots, jobs=4" seq
    (run_batch_slots ~jobs:4)

(* ---- 3. golden miss-class counts (pre-refactor capture) ---- *)

(* Captured at scale 64 from the tree immediately before the bitset /
   prefetch-ring / translation-memo refactor.  Any drift here means an
   optimisation changed simulated behaviour, which is a bug by
   definition: the refactors must be performance-only. *)

let golden_setup ?(prefetch = false) ~bench ~base ~n_cpus ~policy () =
  let scale = 64 in
  let d = Spec.find bench in
  let cfg = Config.scale (base ~n_cpus ()) scale in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> d.build ~scale ()) ~policy) with
    prefetch;
  }

let check_golden ~wall ~instr ~misses (r : Report.t) =
  Alcotest.(check (float 1e-6)) "wall cycles" wall r.wall_cycles;
  Alcotest.(check (float 1e-6)) "instructions" instr r.instructions;
  List.iteri
    (fun i cls ->
      Alcotest.(check (float 1e-6))
        (Mclass.to_string cls) (List.nth misses i)
        r.l2_misses_by_class.(i))
    Mclass.all

let test_golden_tomcatv_pc () =
  let r =
    (Run.run
       (golden_setup ~bench:"tomcatv" ~base:(fun ~n_cpus () -> Config.sgi_base ~n_cpus ())
          ~n_cpus:4 ~policy:Run.Page_coloring ()))
      .Run.report
  in
  check_golden ~wall:51637012.5 ~instr:22623300.0
    ~misses:[ 0.0; 277687.5; 37575.0; 3150.0; 0.0 ]
    r

let test_golden_tomcatv_pc_prefetch () =
  let r =
    (Run.run
       (golden_setup ~prefetch:true ~bench:"tomcatv"
          ~base:(fun ~n_cpus () -> Config.sgi_base ~n_cpus ())
          ~n_cpus:4 ~policy:Run.Page_coloring ()))
      .Run.report
  in
  check_golden ~wall:45929587.5 ~instr:22623300.0
    ~misses:[ 0.0; 10162.5; 74550.0; 450.0; 0.0 ]
    r;
  Alcotest.(check (float 1e-6)) "pf issued" 423300.0 r.pf_issued;
  Alcotest.(check (float 1e-6)) "pf useful" 271387.5 r.pf_useful

let test_golden_swim_bh () =
  let r =
    (Run.run
       (golden_setup ~bench:"swim" ~base:(fun ~n_cpus () -> Config.alphaserver ~n_cpus ())
          ~n_cpus:2 ~policy:Run.Bin_hopping ()))
      .Run.report
  in
  check_golden ~wall:232568040.0 ~instr:58106160.0
    ~misses:[ 0.0; 745260.0; 89340.0; 5460.0; 420.0 ]
    r

(* ---- 4. Bitset and Pool units ---- *)

let test_bitset () =
  let b = Bitset.create 10 in
  Alcotest.(check bool) "fresh empty" false (Bitset.mem b 3);
  Bitset.set b 3;
  Alcotest.(check bool) "set" true (Bitset.mem b 3);
  Alcotest.(check bool) "neighbour clear" false (Bitset.mem b 2);
  Alcotest.(check bool) "past capacity reads false" false (Bitset.mem b 1_000_000);
  Bitset.set b 1_000;
  Alcotest.(check bool) "grown" true (Bitset.mem b 1_000);
  Alcotest.(check bool) "old bit survives growth" true (Bitset.mem b 3);
  Alcotest.check_raises "negative rejected" (Invalid_argument "Bitset.set: negative index")
    (fun () -> Bitset.set b (-1))

let test_pool_map_order () =
  let xs = List.init 50 Fun.id in
  let f x = x * x in
  Alcotest.(check (list int)) "map preserves order" (List.map f xs) (Pool.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs=1 inline" (List.map f xs) (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty list" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "fewer tasks than domains" [ 49 ] (Pool.map ~jobs:8 f [ 7 ])

let test_pool_propagates_failure () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      Pool.run_all ~jobs:4
        (List.init 8 (fun i () -> if i = 5 then failwith "boom")));
  (* every domain was joined: the next map runs to completion, in order *)
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "map after a failure" (List.map succ xs) (Pool.map ~jobs:4 succ xs)

let suite =
  [
    ( "determinism",
      [
        Alcotest.test_case "rerun identical" `Quick test_rerun_identical;
        Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
        Alcotest.test_case "golden tomcatv pc" `Slow test_golden_tomcatv_pc;
        Alcotest.test_case "golden tomcatv pc+prefetch" `Slow test_golden_tomcatv_pc_prefetch;
        Alcotest.test_case "golden swim bh" `Slow test_golden_swim_bh;
        Alcotest.test_case "bitset unit" `Quick test_bitset;
        Alcotest.test_case "pool map order" `Quick test_pool_map_order;
        Alcotest.test_case "pool failure propagation" `Quick test_pool_propagates_failure;
      ] );
  ]
