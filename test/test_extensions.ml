(* Tests for the extension features: CDPC step ablation, per-page
   conflict harvesting, and dynamic page recoloring. *)

module Run = Pcolor.Runtime.Run
module Recolor = Pcolor.Runtime.Recolor
module Colorer = Pcolor.Cdpc.Colorer
module Machine = Pcolor.Memsim.Machine
module Kernel = Pcolor.Vm.Kernel
module Policy = Pcolor.Vm.Policy
module Pt = Pcolor.Vm.Page_table

let test_page_table_reverse () =
  let t = Pt.create () in
  Pt.map t ~vpage:7 ~frame:42;
  Alcotest.(check int) "reverse lookup" 7 (Pt.vpage_of t 42);
  ignore (Pt.unmap t 7);
  Alcotest.(check int) "reverse cleared" (-1) (Pt.vpage_of t 42)

let ident ~cpu:_ ~vpage = (vpage, 0)

let test_harvest_conflicts () =
  let m = Machine.create (Helpers.tiny_cfg ~n_cpus:1 ()) in
  (* ping-pong two conflicting addresses (8 KB apart in the 8 KB DM L2),
     with L1-flushing filler so the L2 sees every round *)
  for _ = 1 to 10 do
    Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
    Machine.access m ~cpu:0 ~vaddr:8192 ~write:false ~translate:ident;
    for k = 0 to 15 do
      Machine.access m ~cpu:0 ~vaddr:(500_000 + (k * 32)) ~write:false ~translate:ident
    done
  done;
  let hot = Machine.harvest_conflicts m ~min_count:3 in
  Alcotest.(check bool) "hot pages found" true (List.length hot >= 1);
  List.iter (fun (_, count) -> Alcotest.(check bool) "count >= min" true (count >= 3)) hot;
  (* second harvest is empty: counters reset *)
  Alcotest.(check int) "harvest resets" 0 (List.length (Machine.harvest_conflicts m ~min_count:1))

let test_kernel_recolor () =
  let cfg = Helpers.tiny_cfg () in
  let policy = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  let k = Kernel.create ~cfg ~policy () in
  let frame, _ = Kernel.translate k ~cpu:0 ~vpage:3 in
  let old_color = Pcolor.Vm.Frame_pool.color_of (Kernel.pool k) frame in
  (match Kernel.recolor k ~vpage:3 ~preferred:((old_color + 4) mod 8) with
  | None -> Alcotest.fail "recolor should succeed"
  | Some (old_frame, new_frame) ->
    Alcotest.(check int) "old frame returned" frame old_frame;
    Alcotest.(check bool) "different color" true
      (Pcolor.Vm.Frame_pool.color_of (Kernel.pool k) new_frame <> old_color);
    Alcotest.(check int) "table updated" new_frame (Pt.frame_of (Kernel.page_table k) 3));
  (* recoloring an unmapped page fails cleanly *)
  Alcotest.(check bool) "unmapped page" true (Kernel.recolor k ~vpage:99 ~preferred:0 = None);
  (* recoloring to the same color is refused and leaks nothing *)
  let free_before = Pcolor.Vm.Frame_pool.free_frames (Kernel.pool k) in
  let frame', _ = Kernel.translate k ~cpu:0 ~vpage:3 in
  let c = Pcolor.Vm.Frame_pool.color_of (Kernel.pool k) frame' in
  Alcotest.(check bool) "same-color refused" true (Kernel.recolor k ~vpage:3 ~preferred:c = None);
  Alcotest.(check int) "no frame leaked" free_before
    (Pcolor.Vm.Frame_pool.free_frames (Kernel.pool k))

let test_recolor_round () =
  let cfg = Helpers.tiny_cfg ~n_cpus:1 () in
  let m = Machine.create cfg in
  let policy = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  let k = Kernel.create ~cfg ~policy () in
  let translate ~cpu ~vpage = Kernel.translate k ~cpu ~vpage in
  (* build a conflict hot spot: vpages 0 and 8 share color 0 *)
  for _ = 1 to 30 do
    Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate;
    Machine.access m ~cpu:0 ~vaddr:(8 * 1024) ~write:false ~translate;
    for j = 0 to 15 do
      Machine.access m ~cpu:0 ~vaddr:(500_000 + (j * 32)) ~write:false ~translate
    done
  done;
  let rc = Recolor.create ~threshold:4 ~max_per_round:4 ~machine:m ~kernel:k () in
  let moved = Recolor.round rc ~trigger_cpu:0 in
  Alcotest.(check bool) "recolored something" true (moved >= 1);
  let rounds, total, cycles = Recolor.stats rc in
  Alcotest.(check int) "one round" 1 rounds;
  Alcotest.(check int) "stats match" moved total;
  Alcotest.(check bool) "costs charged" true (cycles > 0);
  (* the two hot pages no longer share a color *)
  let c0 = Option.get (Kernel.color_of_vpage k 0) in
  let c8 = Option.get (Kernel.color_of_vpage k 8) in
  Alcotest.(check bool) "conflict repaired" true (c0 <> c8)

let test_ablation_va_order () =
  (* with steps 2-4 off, hints follow virtual-address order: colors of
     consecutive accessed pages increase round-robin *)
  let cfg = Helpers.tiny_cfg () in
  let p = Helpers.figure4_program () in
  let summary = Helpers.layout cfg p in
  let off = { Colorer.set_ordering = false; segment_ordering = false; rotation = false } in
  let hints, info = Colorer.generate_ablated ~ablation:off ~cfg ~summary ~program:p ~n_cpus:2 in
  Alcotest.(check int) "all pages hinted" info.total_pages (Pcolor.Vm.Hints.count hints);
  let pages = ref [] in
  Pcolor.Vm.Hints.iter hints (fun ~vpage ~color -> pages := (vpage, color) :: !pages);
  let sorted = List.sort compare !pages in
  List.iteri
    (fun i (_, color) -> Alcotest.(check int) "va-order round robin" (i mod 8) color)
    sorted

let test_ablation_still_valid_hints () =
  (* every ablation variant must produce a bijective page placement *)
  let cfg = Helpers.tiny_cfg () in
  List.iter
    (fun ablation ->
      let p = Helpers.figure4_program () in
      let summary = Helpers.layout cfg p in
      let hints, info = Colorer.generate_ablated ~ablation ~cfg ~summary ~program:p ~n_cpus:2 in
      Alcotest.(check int) "hint count" info.total_pages (Pcolor.Vm.Hints.count hints);
      let hist = Pcolor.Vm.Hints.color_histogram hints in
      let used = Array.to_list hist |> List.filter (( < ) 0) in
      Alcotest.(check bool) "balanced" true
        (List.fold_left max 0 used - List.fold_left min max_int used <= 1))
    [
      Colorer.full_algorithm;
      { Colorer.full_algorithm with rotation = false };
      { Colorer.full_algorithm with set_ordering = false };
      { Colorer.set_ordering = false; segment_ordering = false; rotation = false };
    ]

let test_dynamic_policy_end_to_end () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let s =
    Run.default_setup ~cfg
      ~make_program:(fun () -> Helpers.figure4_program ())
      ~policy:(Run.Dynamic_recoloring { base = `Page_coloring })
  in
  let o = Run.run s in
  Alcotest.(check string) "policy label" "dynamic(pc)" o.report.policy;
  Alcotest.(check bool) "completed" true (o.report.wall_cycles > 0.0)

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "page table reverse map" `Quick test_page_table_reverse;
        Alcotest.test_case "harvest conflicts" `Quick test_harvest_conflicts;
        Alcotest.test_case "kernel recolor" `Quick test_kernel_recolor;
        Alcotest.test_case "recolor round" `Quick test_recolor_round;
        Alcotest.test_case "ablation: VA order" `Quick test_ablation_va_order;
        Alcotest.test_case "ablation: valid hints" `Quick test_ablation_still_valid_hints;
        Alcotest.test_case "dynamic policy end-to-end" `Quick test_dynamic_policy_end_to_end;
      ] );
  ]
