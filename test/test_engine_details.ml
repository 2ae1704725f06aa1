(* Engine- and façade-level details: bus-contention stretching, machine
   configuration presets, the Quick helpers, and the touch-order
   construction. *)

module Config = Pcolor.Memsim.Config
module Run = Pcolor.Runtime.Run
module Engine = Pcolor.Runtime.Engine
module Ir = Pcolor.Comp.Ir
module Gen = Pcolor.Workloads.Gen

let test_config_presets () =
  let sgi = Config.sgi_base ~n_cpus:16 () in
  Alcotest.(check int) "sgi colors" 256 (Config.n_colors sgi);
  Alcotest.(check int) "sgi 500ns" 200 sgi.mem_cycles;
  Alcotest.(check int) "line bus cycles" 43 (Config.line_bus_cycles sgi);
  let w2 = Config.sgi_2way () in
  Alcotest.(check int) "2-way halves colors" 128 (Config.n_colors w2);
  let m4 = Config.sgi_4mb () in
  Alcotest.(check int) "4MB quadruples colors" 1024 (Config.n_colors m4);
  let alpha = Config.alphaserver () in
  Alcotest.(check int) "alpha colors" 512 (Config.n_colors alpha)

let test_config_scale () =
  let sgi = Config.sgi_base () in
  let s4 = Config.scale sgi 4 in
  Alcotest.(check int) "cache scaled" (256 * 1024) s4.l2.size;
  Alcotest.(check int) "page kept" 4096 s4.page_size;
  Alcotest.(check int) "line kept" 128 s4.l2.line;
  Alcotest.(check int) "colors scaled" 64 (Config.n_colors s4);
  Alcotest.(check bool) "scale 1 is identity" true (Config.scale sgi 1 == sgi);
  Alcotest.(check bool) "absurd scale rejected" true
    (try
       ignore (Config.scale sgi 4096);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-power rejected" true
    (try
       ignore (Config.scale sgi 3);
       false
     with Invalid_argument _ -> true)

(* A bandwidth-hungry streaming program on a bus-starved machine: the
   contention fixed point must stretch memory stalls. *)
let test_contention_stretch () =
  let cfg =
    Config.validate
      {
        (Helpers.tiny_cfg ~n_cpus:8 ()) with
        name = "starved";
        bus_bytes_per_cycle = 0.25 (* 32 cycles of bus per 128 B line *);
      }
  in
  let mk () =
    let c = Gen.ctx () in
    let a = Gen.arr2 c "A" ~rows:64 ~cols:512 in
    let nest =
      Ir.make_nest ~label:"stream" ~kind:Gen.parallel_even
        ~bounds:[| 64; 512 |]
        ~refs:[ Gen.full2 a ~write:true ]
        ~body_instr:1 ()
    in
    Gen.program c ~name:"stream"
      ~phases:[ { Ir.pname = "s"; nests = [ nest ] } ]
      ~steady:[ (0, 2) ] ()
  in
  let r = (Run.run (Run.default_setup ~cfg ~make_program:mk ~policy:Run.Page_coloring)).report in
  Alcotest.(check bool) "bus saturated" true (r.bus_occupancy > 0.5);
  (* same program on a fat bus is faster per the stretch model *)
  let fat = Config.validate { cfg with name = "fat"; bus_bytes_per_cycle = 64.0 } in
  let r' =
    (Run.run (Run.default_setup ~cfg:fat ~make_program:mk ~policy:Run.Page_coloring)).report
  in
  Alcotest.(check bool) "contention slows the starved bus" true
    (r.wall_cycles > 1.2 *. r'.wall_cycles)

let test_quick_facade () =
  let r = Pcolor.Quick.run ~n_cpus:2 ~scale:64 "mgrid" in
  Alcotest.(check string) "benchmark" "mgrid" r.benchmark;
  Alcotest.(check string) "default policy is cdpc" "cdpc" r.policy;
  let rs = Pcolor.Quick.compare ~n_cpus:2 ~scale:64 "mgrid" in
  Alcotest.(check int) "three reports" 3 (List.length rs);
  Alcotest.(check (list string)) "policy order"
    [ "page-coloring"; "bin-hopping"; "cdpc" ]
    (List.map (fun (r : Pcolor.Stats.Report.t) -> r.policy) rs)

let test_touch_order_is_position_permutation () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let p = Helpers.figure4_program () in
  let summary = Helpers.layout cfg p in
  let _, info = Pcolor.Cdpc.Colorer.generate ~cfg ~summary ~program:p ~n_cpus:2 in
  let order = Array.to_list (Pcolor.Cdpc.Colorer.order info) in
  Alcotest.(check int) "covers every placed page" info.total_pages (List.length order);
  Alcotest.(check int) "no duplicates" info.total_pages
    (List.length (List.sort_uniq compare order));
  (* consecutive touches get consecutive colors under bin hopping: the
     k-th page in touch order must be hinted color (k mod n_colors) *)
  let hints, _ = Pcolor.Cdpc.Colorer.generate ~cfg ~summary ~program:p ~n_cpus:2 in
  List.iteri
    (fun k vpage ->
      Alcotest.(check (option int)) "hint matches position color"
        (Some (k mod info.n_colors))
        (Pcolor.Vm.Hints.find hints vpage))
    order

let test_engine_overheads_accessor () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let policy = Pcolor.Vm.Policy.create ~n_colors:8 ~seed:1 (Pcolor.Vm.Policy.Base Page_coloring) in
  let kernel = Pcolor.Vm.Kernel.create ~cfg ~policy () in
  let machine = Pcolor.Memsim.Machine.create cfg in
  let engine =
    Engine.create ~machine ~kernel ~program:(Helpers.figure4_program ())
      ~plans:Pcolor.Comp.Prefetcher.none ()
  in
  ignore (Engine.run engine ~cap:1 ());
  Alcotest.(check bool) "contention factor sane" true (Engine.last_contention engine >= 1.0);
  let _, _, _, sync = Pcolor.Stats.Overheads.totals (Engine.overheads engine) in
  Alcotest.(check bool) "barriers charged" true (sync > 0.0)

let suite =
  [
    ( "engine-details",
      [
        Alcotest.test_case "config presets" `Quick test_config_presets;
        Alcotest.test_case "config scale" `Quick test_config_scale;
        Alcotest.test_case "contention stretch" `Quick test_contention_stretch;
        Alcotest.test_case "quick facade" `Quick test_quick_facade;
        Alcotest.test_case "touch order permutation" `Quick test_touch_order_is_position_permutation;
        Alcotest.test_case "engine accessors" `Quick test_engine_overheads_accessor;
      ] );
  ]
