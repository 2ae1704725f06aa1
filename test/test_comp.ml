(* Tests for the compiler model: partitioning, IR, scheduling,
   footprints, summaries and the prefetch pass. *)

module Partition = Pcolor.Comp.Partition
module Ir = Pcolor.Comp.Ir
module Schedule = Pcolor.Comp.Schedule
module Footprint = Pcolor.Comp.Footprint
module Summary = Pcolor.Comp.Summary
module Prefetcher = Pcolor.Comp.Prefetcher
module Gen = Pcolor.Workloads.Gen

let test_partition_even () =
  (* 10 iterations over 4 CPUs: 3,3,2,2 *)
  Alcotest.(check (pair int int)) "cpu0" (0, 3) (Partition.range Even Forward ~n_cpus:4 ~cpu:0 ~trip:10);
  Alcotest.(check (pair int int)) "cpu1" (3, 6) (Partition.range Even Forward ~n_cpus:4 ~cpu:1 ~trip:10);
  Alcotest.(check (pair int int)) "cpu2" (6, 8) (Partition.range Even Forward ~n_cpus:4 ~cpu:2 ~trip:10);
  Alcotest.(check (pair int int)) "cpu3" (8, 10) (Partition.range Even Forward ~n_cpus:4 ~cpu:3 ~trip:10)

let test_partition_blocked () =
  (* ceil(10/4) = 3: 3,3,3,1 *)
  Alcotest.(check (pair int int)) "cpu0" (0, 3) (Partition.range Blocked Forward ~n_cpus:4 ~cpu:0 ~trip:10);
  Alcotest.(check (pair int int)) "cpu3 short" (9, 10)
    (Partition.range Blocked Forward ~n_cpus:4 ~cpu:3 ~trip:10);
  (* trip 4 over 8 CPUs: tail CPUs empty *)
  Alcotest.(check (pair int int)) "empty tail" (4, 4)
    (Partition.range Blocked Forward ~n_cpus:8 ~cpu:7 ~trip:4)

let test_partition_reverse () =
  let lo, hi = Partition.range Even Reverse ~n_cpus:4 ~cpu:0 ~trip:10 in
  Alcotest.(check (pair int int)) "cpu0 takes the last block" (8, 10) (lo, hi);
  let lo', hi' = Partition.range Even Reverse ~n_cpus:4 ~cpu:3 ~trip:10 in
  Alcotest.(check (pair int int)) "cpu3 takes the first" (0, 3) (lo', hi')

let test_partition_owner_inverse () =
  List.iter
    (fun (policy, direction) ->
      for iter = 0 to 32 do
        let owner = Partition.owner policy direction ~n_cpus:5 ~trip:33 iter in
        let lo, hi = Partition.range policy direction ~n_cpus:5 ~cpu:owner ~trip:33 in
        Alcotest.(check bool) "owner's range contains iter" true (lo <= iter && iter < hi)
      done)
    [ (Partition.Even, Partition.Forward); (Even, Reverse); (Blocked, Forward); (Blocked, Reverse) ]

let test_partition_applu_imbalance () =
  (* the paper's example: 33 iterations leave 16 CPUs imbalanced *)
  Alcotest.(check int) "even 33/16" 1 (Partition.imbalance Even ~n_cpus:16 ~trip:33);
  (* blocked ⌈33/16⌉ = 3: eleven CPUs get 3 iterations, the rest get 0 *)
  Alcotest.(check int) "blocked 33/16" 3 (Partition.imbalance Blocked ~n_cpus:16 ~trip:33)

let prop_partition_tiles =
  QCheck.Test.make ~name:"partitions tile the iteration space" ~count:300
    QCheck.(triple (int_range 1 16) (int_range 0 100) bool)
    (fun (n_cpus, trip, blocked) ->
      let policy = if blocked then Partition.Blocked else Partition.Even in
      let covered = Array.make (max trip 1) 0 in
      for cpu = 0 to n_cpus - 1 do
        let lo, hi = Partition.range policy Forward ~n_cpus ~cpu ~trip in
        for i = lo to hi - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      trip = 0 || Array.for_all (( = ) 1) (Array.sub covered 0 trip))

let prop_reverse_is_permutation =
  QCheck.Test.make ~name:"reverse assigns the same blocks to reversed cpus" ~count:200
    QCheck.(pair (int_range 1 12) (int_range 1 100))
    (fun (n_cpus, trip) ->
      List.for_all
        (fun cpu ->
          Partition.range Even Reverse ~n_cpus ~cpu ~trip
          = Partition.range Even Forward ~n_cpus ~cpu:(n_cpus - 1 - cpu) ~trip)
        (List.init n_cpus Fun.id))

let test_ir_validation () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Ir.make_array: bad dims") (fun () ->
      ignore (Ir.make_array ~id:0 ~name:"Z" ~elem_size:8 ~dims:[| 4; 0 |]));
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 4; 8 |] in
  Alcotest.(check int) "elems" 32 (Ir.elems a);
  Alcotest.(check int) "bytes" 256 (Ir.bytes a);
  let bad =
    Ir.make_nest ~label:"bad" ~kind:Ir.Sequential ~bounds:[| 4; 8 |]
      ~refs:[ Ir.ref_to a ~coeffs:[| 8 |] ~offset:0 ~write:false ]
      ()
  in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Ir.check_nest bad;
       false
     with Invalid_argument _ -> true)

let test_ir_min_max_index () =
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 10; 10 |] in
  let r = Ir.ref_to a ~coeffs:[| 10; 1 |] ~offset:0 ~write:false in
  Alcotest.(check (option (pair int int))) "full range" (Some (20, 49))
    (Ir.min_max_index r ~bounds:[| 10; 10 |] ~lo0:2 ~hi0:5);
  Alcotest.(check (option (pair int int))) "empty" None
    (Ir.min_max_index r ~bounds:[| 10; 10 |] ~lo0:5 ~hi0:5);
  (* negative coefficient *)
  let rneg = Ir.ref_to a ~coeffs:[| -10; 1 |] ~offset:90 ~write:false in
  Alcotest.(check (option (pair int int))) "negative coeff" (Some (50, 79))
    (Ir.min_max_index rneg ~bounds:[| 10; 10 |] ~lo0:2 ~hi0:5)

let test_schedule () =
  let p = Helpers.figure4_program () in
  let nest = List.hd (List.hd p.phases).nests in
  Alcotest.(check (pair int int)) "cpu0 half" (0, 4) (Schedule.range nest ~n_cpus:2 ~cpu:0);
  Alcotest.(check (pair int int)) "cpu1 half" (4, 8) (Schedule.range nest ~n_cpus:2 ~cpu:1);
  Alcotest.(check bool) "coverage" true (Schedule.validate_coverage nest ~n_cpus:3);
  let seq = Ir.make_nest ~label:"s" ~kind:Ir.Sequential ~bounds:[| 6 |] ~refs:[] () in
  Alcotest.(check (pair int int)) "master gets all" (0, 6) (Schedule.range seq ~n_cpus:4 ~cpu:0);
  Alcotest.(check (pair int int)) "slaves idle" (0, 0) (Schedule.range seq ~n_cpus:4 ~cpu:3);
  Alcotest.(check bool) "seq not parallel" false (match seq.kind with Ir.Parallel _ -> true | _ -> false)

let test_footprint_norm () =
  let open Footprint in
  let ivs = [ { lo = 10; hi = 20 }; { lo = 15; hi = 25 }; { lo = 30; hi = 30 }; { lo = 40; hi = 50 } ] in
  Alcotest.(check int) "merged bytes" (15 + 10) (total_bytes ivs);
  let merged = norm ivs in
  Alcotest.(check int) "two intervals" 2 (List.length merged)

let test_footprint_nest_cpu () =
  let cfg = Helpers.tiny_cfg () in
  let p = Helpers.figure4_program () in
  ignore (Helpers.layout cfg p);
  let nest = List.hd (List.hd p.phases).nests in
  let f0 = Footprint.nest_cpu nest ~n_cpus:2 ~cpu:0 in
  let f1 = Footprint.nest_cpu nest ~n_cpus:2 ~cpu:1 in
  (* each CPU touches half of each array: 4 rows x 128 cols x 8 B *)
  Alcotest.(check int) "cpu0 bytes" (2 * 4 * 128 * 8) (Footprint.total_bytes f0);
  Alcotest.(check int) "cpu1 bytes" (2 * 4 * 128 * 8) (Footprint.total_bytes f1);
  (* halves are disjoint *)
  Alcotest.(check int) "disjoint" (4 * 4 * 128 * 8) (Footprint.total_bytes (f0 @ f1))

let test_footprint_density () =
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 16; 1024 |] in
  let dense = Ir.ref_to a ~coeffs:[| 1024; 1 |] ~offset:0 ~write:false in
  let sparse = Ir.ref_to a ~coeffs:[| 1024; 1 |] ~offset:0 ~write:false in
  let nd = Ir.make_nest ~label:"d" ~kind:Ir.Sequential ~bounds:[| 16; 1024 |] ~refs:[ dense ] () in
  let ns = Ir.make_nest ~label:"s" ~kind:Ir.Sequential ~bounds:[| 16; 8 |] ~refs:[ sparse ] () in
  Alcotest.(check (float 1e-9)) "dense density" 1.0 (Footprint.unit_density nd dense);
  Alcotest.(check bool) "sparse density small" true (Footprint.unit_density ns sparse < 0.02);
  Alcotest.(check bool) "dense is page-dense" true (Footprint.page_dense nd dense ~page_size:4096);
  Alcotest.(check bool) "sparse is not" false (Footprint.page_dense ns sparse ~page_size:4096)

let test_summary_extraction () =
  let cfg = Helpers.tiny_cfg () in
  let p = Pcolor.Workloads.Tomcatv.program ~scale:64 () in
  let summary = Helpers.layout cfg p in
  (* every tomcatv array is partitioned and colorable *)
  List.iter
    (fun (a : Ir.array_decl) ->
      Alcotest.(check bool) (a.aname ^ " colorable") true (Summary.colorable summary a.id))
    p.arrays;
  (* stencil offsets produce shift communication *)
  Alcotest.(check bool) "has shift comm" true (List.length summary.comms > 0);
  List.iter
    (fun (c : Summary.comm_info) ->
      match c.comm with
      | Summary.Shift { units } -> Alcotest.(check bool) "1-row halo" true (units >= 1 && units <= 2)
      | Summary.Rotate _ -> Alcotest.fail "unexpected rotate")
    summary.comms;
  (* X and RX co-accessed in the residual nest *)
  let x = List.find (fun (a : Ir.array_decl) -> a.aname = "X") p.arrays in
  let rx = List.find (fun (a : Ir.array_decl) -> a.aname = "RX") p.arrays in
  Alcotest.(check bool) "grouped" true (Summary.grouped summary x.id rx.id)

let test_summary_su2cor_exclusion () =
  let cfg = Helpers.tiny_cfg () in
  let p = Pcolor.Workloads.Su2cor.program ~scale:16 () in
  let summary = Helpers.layout cfg p in
  let u = List.find (fun (a : Ir.array_decl) -> a.aname = "U") p.arrays in
  let w3 = List.find (fun (a : Ir.array_decl) -> a.aname = "W3") p.arrays in
  Alcotest.(check bool) "gauge field excluded" false (Summary.colorable summary u.id);
  Alcotest.(check bool) "workspace colorable" true (Summary.colorable summary w3.id)

let test_summary_dominant_partition () =
  let cfg = Helpers.tiny_cfg () in
  let p = Pcolor.Workloads.Tomcatv.program ~scale:64 () in
  let summary = Helpers.layout cfg p in
  let x = List.find (fun (a : Ir.array_decl) -> a.aname = "X") p.arrays in
  match Summary.dominant_partition summary x.id with
  | Some part -> Alcotest.(check bool) "weight accumulated" true (part.weight >= 75)
  | None -> Alcotest.fail "X has no partition"

let test_prefetcher_plan () =
  let cfg = Helpers.tiny_cfg () in
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 64; 512 |] in
  let streaming = Ir.ref_to a ~coeffs:[| 512; 1 |] ~offset:0 ~write:false in
  let invariant = Ir.ref_to a ~coeffs:[| 512; 0 |] ~offset:0 ~write:false in
  let nest =
    Ir.make_nest ~label:"n" ~kind:Gen.parallel_even ~bounds:[| 64; 512 |]
      ~refs:[ streaming; invariant ] ()
  in
  let plan = Prefetcher.plan_nest cfg nest in
  Alcotest.(check bool) "streaming ref prefetched" true plan.(0).prefetch;
  Alcotest.(check bool) "ahead positive" true (plan.(0).ahead_elems > 0);
  Alcotest.(check bool) "loop-invariant ref skipped" false plan.(1).prefetch

let test_prefetcher_tiled_short_distance () =
  let cfg = Helpers.tiny_cfg () in
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 64; 512 |] in
  let r = Ir.ref_to a ~coeffs:[| 512; 1 |] ~offset:0 ~write:false in
  let plain = Ir.make_nest ~label:"p" ~kind:Gen.parallel_even ~bounds:[| 64; 512 |] ~refs:[ r ] () in
  let tiled =
    Ir.make_nest ~label:"t" ~kind:Gen.parallel_even ~bounds:[| 64; 512 |] ~refs:[ r ] ~tiled:true ()
  in
  let pp = (Prefetcher.plan_nest cfg plain).(0) in
  let pt = (Prefetcher.plan_nest cfg tiled).(0) in
  Alcotest.(check bool) "tiling shortens the pipeline" true (pt.ahead_elems < pp.ahead_elems)

let test_prefetcher_find_and_coverage () =
  let cfg = Helpers.tiny_cfg () in
  let p = Pcolor.Workloads.Swim.program ~scale:64 () in
  let t = Prefetcher.plan cfg p in
  let covered, total = Prefetcher.coverage t in
  Alcotest.(check bool) "some coverage" true (covered > 0 && covered <= total);
  let unknown = Ir.make_nest ~label:"nope" ~kind:Ir.Sequential ~bounds:[| 1 |] ~refs:[] () in
  Alcotest.(check int) "unknown nest: empty plan" 0 (Array.length (Prefetcher.find t unknown));
  let none_plan = Prefetcher.find Prefetcher.none (List.hd (List.hd p.phases).nests) in
  Alcotest.(check bool) "none plan disables" true
    (Array.for_all (fun (rp : Prefetcher.ref_plan) -> not rp.prefetch) none_plan)

let suite =
  [
    ( "comp",
      [
        Alcotest.test_case "partition even" `Quick test_partition_even;
        Alcotest.test_case "partition blocked" `Quick test_partition_blocked;
        Alcotest.test_case "partition reverse" `Quick test_partition_reverse;
        Alcotest.test_case "partition owner inverse" `Quick test_partition_owner_inverse;
        Alcotest.test_case "partition applu imbalance" `Quick test_partition_applu_imbalance;
        Alcotest.test_case "ir validation" `Quick test_ir_validation;
        Alcotest.test_case "ir min/max index" `Quick test_ir_min_max_index;
        Alcotest.test_case "schedule" `Quick test_schedule;
        Alcotest.test_case "footprint norm" `Quick test_footprint_norm;
        Alcotest.test_case "footprint per-cpu" `Quick test_footprint_nest_cpu;
        Alcotest.test_case "footprint density" `Quick test_footprint_density;
        Alcotest.test_case "summary extraction" `Quick test_summary_extraction;
        Alcotest.test_case "summary su2cor exclusion" `Quick test_summary_su2cor_exclusion;
        Alcotest.test_case "summary dominant partition" `Quick test_summary_dominant_partition;
        Alcotest.test_case "prefetcher plan" `Quick test_prefetcher_plan;
        Alcotest.test_case "prefetcher tiled" `Quick test_prefetcher_tiled_short_distance;
        Alcotest.test_case "prefetcher find/coverage" `Quick test_prefetcher_find_and_coverage;
      ] );
    Helpers.qsuite "comp:props" [ prop_partition_tiles; prop_reverse_is_permutation ];
  ]
