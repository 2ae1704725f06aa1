(* Per-benchmark invariants: Table 1 sizes, documented personalities,
   and a bounds-checked execution of every kernel. *)

module Ir = Pcolor.Comp.Ir
module Spec = Pcolor.Workloads.Spec
module Run = Pcolor.Runtime.Run

let mb p = float_of_int (Ir.data_set_bytes p) /. 1048576.0

let test_table1_sizes () =
  List.iter
    (fun (d : Spec.descriptor) ->
      let m = mb (d.build ~scale:1 ()) in
      (* within 15% of the paper's Table 1 value (fpppp is "< 1 MB") *)
      let lo, hi =
        if d.name = "fpppp" then (0.0, 1.0) else (0.85 *. d.table1_mb, 1.15 *. d.table1_mb)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s size %.1f in [%.1f, %.1f]" d.name m lo hi)
        true (m >= lo && m <= hi))
    Spec.all

let test_scaling_divides_sizes () =
  List.iter
    (fun (d : Spec.descriptor) ->
      if d.name <> "fpppp" then begin
        let full = mb (d.build ~scale:1 ()) in
        let quarter = mb (d.build ~scale:4 ()) in
        let ratio = full /. quarter in
        Alcotest.(check bool)
          (Printf.sprintf "%s scale-4 ratio %.2f near 4" d.name ratio)
          true
          (ratio > 3.0 && ratio < 5.5)
      end)
    Spec.all

let kinds_of p =
  List.concat_map
    (fun (ph : Ir.phase) -> List.map (fun (n : Ir.nest) -> n.kind) ph.nests)
    p.Ir.phases

let test_fpppp_sequential_only () =
  let p = Spec.(find "fpppp").build ~scale:1 () in
  Alcotest.(check bool) "all nests sequential" true
    (List.for_all (function Ir.Sequential -> true | _ -> false) (kinds_of p));
  Alcotest.(check bool) "instruction-stall modeled" true
    (List.exists
       (fun (ph : Ir.phase) ->
         List.exists (fun (n : Ir.nest) -> n.Ir.extra_onchip_stall > 0) ph.nests)
       p.phases)

let test_apsi_wave5_suppressed () =
  List.iter
    (fun name ->
      let p = Spec.(find name).build ~scale:16 () in
      Alcotest.(check bool)
        (name ^ " has suppressed nests")
        true
        (List.exists (function Ir.Suppressed -> true | _ -> false) (kinds_of p)))
    [ "apsi"; "wave5" ]

let test_applu_trip_33 () =
  (* the paper's load-imbalance example: parallel loops of 33 iterations
     at every scale *)
  List.iter
    (fun scale ->
      let p = Spec.(find "applu").build ~scale () in
      List.iter
        (fun (ph : Ir.phase) ->
          List.iter
            (fun (n : Ir.nest) ->
              match n.Ir.kind with
              | Ir.Parallel _ ->
                Alcotest.(check bool) "trip 31..33" true
                  (n.bounds.(0) >= 31 && n.bounds.(0) <= 33);
                Alcotest.(check bool) "tiled (prefetch-hostile)" true n.tiled
              | _ -> ())
            ph.nests)
        p.phases)
    [ 1; 4; 16 ]

let test_turb3d_phase_structure () =
  let p = Spec.(find "turb3d").build ~scale:16 () in
  Alcotest.(check int) "four phases" 4 (List.length p.phases);
  Alcotest.(check (list int)) "11/66/100/120 occurrences" [ 11; 66; 100; 120 ]
    (List.map snd p.steady)

let test_tomcatv_swim_equal_arrays () =
  List.iter
    (fun name ->
      let p = Spec.(find name).build ~scale:4 () in
      Alcotest.(check int) (name ^ " seven arrays") 7 (List.length p.arrays);
      let sizes = List.map Ir.bytes p.arrays |> List.sort_uniq compare in
      Alcotest.(check int) (name ^ " equal-sized arrays") 1 (List.length sizes))
    [ "tomcatv"; "swim" ]

let test_su2cor_mixed_density () =
  let p = Spec.(find "su2cor").build ~scale:16 () in
  let summary = Pcolor.Comp.Summary.extract p in
  let colorable, excluded =
    List.partition (fun (a : Ir.array_decl) -> Pcolor.Comp.Summary.colorable summary a.id) p.arrays
  in
  Alcotest.(check bool) "some arrays excluded" true (List.length excluded >= 1);
  Alcotest.(check bool) "some arrays colorable" true (List.length colorable >= 2)

(* Every kernel must execute cleanly with bounds checking on: no
   reference may leave its array at any scale/CPU-count combination. *)
let test_all_benchmarks_bounds_checked () =
  List.iter
    (fun (d : Spec.descriptor) ->
      List.iter
        (fun n_cpus ->
          let cfg =
            Pcolor.Memsim.Config.scale (Pcolor.Memsim.Config.sgi_base ~n_cpus ()) 64
          in
          let s =
            {
              (Run.default_setup ~cfg
                 ~make_program:(fun () -> d.build ~scale:64 ())
                 ~policy:Run.cdpc)
              with
              check_bounds = true;
              cap = 1;
            }
          in
          let r = (Run.run s).report in
          Alcotest.(check bool) (d.name ^ " ran") true (r.instructions > 0.0))
        [ 1; 3; 16 ])
    Spec.all

let suite =
  [
    ( "workloads",
      [
        Alcotest.test_case "table 1 sizes" `Quick test_table1_sizes;
        Alcotest.test_case "scaling divides sizes" `Quick test_scaling_divides_sizes;
        Alcotest.test_case "fpppp sequential-only" `Quick test_fpppp_sequential_only;
        Alcotest.test_case "apsi/wave5 suppressed" `Quick test_apsi_wave5_suppressed;
        Alcotest.test_case "applu 33-trip tiled loops" `Quick test_applu_trip_33;
        Alcotest.test_case "turb3d phase structure" `Quick test_turb3d_phase_structure;
        Alcotest.test_case "tomcatv/swim equal arrays" `Quick test_tomcatv_swim_equal_arrays;
        Alcotest.test_case "su2cor mixed density" `Quick test_su2cor_mixed_density;
        Alcotest.test_case "all benchmarks bounds-checked" `Slow test_all_benchmarks_bounds_checked;
      ] );
  ]
