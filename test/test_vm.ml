(* Tests for the VM substrate: frame pool, page table, hints, mapping
   policies and the fault-handling kernel. *)

module Pool = Pcolor.Vm.Frame_pool
module Pt = Pcolor.Vm.Page_table
module Hints = Pcolor.Vm.Hints
module Policy = Pcolor.Vm.Policy
module Kernel = Pcolor.Vm.Kernel

let test_pool_basic () =
  let p = Pool.create ~frames:16 ~n_colors:4 in
  Alcotest.(check int) "free" 16 (Pool.free_frames p);
  Alcotest.(check int) "per color" 4 (Pool.free_of_color p 2);
  (match Pool.alloc p ~preferred:2 with
  | Some f ->
    Alcotest.(check int) "honored color" 2 (Pool.color_of p f);
    Alcotest.(check int) "ascending frames first" 2 f
  | None -> Alcotest.fail "alloc failed");
  Alcotest.(check int) "honored count" 1 (Pool.honored p);
  Alcotest.(check int) "free decremented" 15 (Pool.free_frames p)

let test_pool_fallback_nearest () =
  let p = Pool.create ~frames:8 ~n_colors:4 in
  (* drain color 1 *)
  ignore (Pool.alloc p ~preferred:1);
  ignore (Pool.alloc p ~preferred:1);
  match Pool.alloc p ~preferred:1 with
  | Some f ->
    let c = Pool.color_of p f in
    Alcotest.(check bool) "adjacent color" true (c = 0 || c = 2);
    Alcotest.(check int) "fallback counted" 1 (Pool.fallbacks p)
  | None -> Alcotest.fail "pool not empty"

let test_pool_exhaustion_release () =
  let p = Pool.create ~frames:2 ~n_colors:2 in
  let f0 = Option.get (Pool.alloc p ~preferred:0) in
  ignore (Pool.alloc p ~preferred:0);
  Alcotest.(check bool) "exhausted" true (Pool.alloc p ~preferred:0 = None);
  Pool.release p f0;
  Alcotest.(check (option int)) "reusable" (Some f0) (Pool.alloc p ~preferred:(Pool.color_of p f0));
  Alcotest.check_raises "bad release" (Invalid_argument "Frame_pool.release: bad frame") (fun () ->
      Pool.release p 99)

let test_pool_modular_preference () =
  let p = Pool.create ~frames:8 ~n_colors:4 in
  match Pool.alloc p ~preferred:7 with
  | Some f -> Alcotest.(check int) "preferred mod colors" 3 (Pool.color_of p f)
  | None -> Alcotest.fail "alloc failed"

let prop_pool_no_double_alloc =
  QCheck.Test.make ~name:"pool never double-allocates" ~count:100
    QCheck.(list_of_size (Gen.return 20) (int_range 0 7))
    (fun prefs ->
      let p = Pool.create ~frames:20 ~n_colors:8 in
      let got = List.filter_map (fun c -> Pool.alloc p ~preferred:c) prefs in
      List.length (List.sort_uniq compare got) = List.length got)

let test_page_table () =
  let t = Pt.create () in
  Alcotest.(check bool) "empty" false (Pt.mem t 5);
  Pt.map t ~vpage:5 ~frame:42;
  Alcotest.(check int) "frame_of" 42 (Pt.frame_of t 5);
  Alcotest.(check int) "vpage_of" 5 (Pt.vpage_of t 42);
  Alcotest.(check int) "frame_of unmapped" (-1) (Pt.frame_of t 6);
  Alcotest.(check int) "vpage_of free frame" (-1) (Pt.vpage_of t 41);
  Alcotest.(check int) "count" 1 (Pt.mapped_count t);
  Alcotest.check_raises "remap rejected" (Invalid_argument "Page_table.map: page already mapped")
    (fun () -> Pt.map t ~vpage:5 ~frame:1);
  Alcotest.(check (option int)) "unmap" (Some 42) (Pt.unmap t 5);
  Alcotest.(check int) "count after unmap" 0 (Pt.mapped_count t);
  Alcotest.(check int) "unmapped both ways" (-1) (Pt.vpage_of t 42);
  Alcotest.(check (option int)) "second unmap" None (Pt.unmap t 5)

let test_hints () =
  let h = Hints.create ~n_colors:8 in
  Hints.set h ~vpage:3 ~color:5;
  Hints.set h ~vpage:4 ~color:5;
  Alcotest.(check (option int)) "find" (Some 5) (Hints.find h 3);
  Alcotest.(check (option int)) "absent" None (Hints.find h 9);
  Alcotest.(check int) "count" 2 (Hints.count h);
  Alcotest.(check int) "histogram" 2 (Hints.color_histogram h).(5);
  Alcotest.check_raises "out of range" (Invalid_argument "Hints.set: color out of range")
    (fun () -> Hints.set h ~vpage:0 ~color:8)

let test_policy_page_coloring () =
  let p = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  Alcotest.(check int) "vpage mod colors" 3 (Policy.preferred_color p ~vpage:11);
  Alcotest.(check int) "deterministic" 3 (Policy.preferred_color p ~vpage:11);
  Alcotest.(check string) "name" "page-coloring" (Policy.name p)

let test_policy_bin_hopping_cycles () =
  let p = Policy.create ~n_colors:4 ~seed:1 (Policy.Base Bin_hopping) in
  let colors = List.init 8 (fun i -> Policy.preferred_color p ~vpage:(100 + i)) in
  Alcotest.(check (list int)) "cycles without jitter" [ 0; 1; 2; 3; 0; 1; 2; 3 ] colors

let test_policy_bin_hopping_jitter () =
  let p = Policy.create ~n_colors:64 ~seed:1 ~race_jitter:true (Policy.Base Bin_hopping) in
  let colors = List.init 64 (fun i -> Policy.preferred_color p ~vpage:i) in
  (* jitter must skip at least one counter value over 64 faults *)
  let strictly_cyclic = List.mapi (fun i c -> c = i mod 64) colors |> List.for_all Fun.id in
  Alcotest.(check bool) "jitter perturbs" false strictly_cyclic

let test_policy_random_range_and_seed () =
  let p1 = Policy.create ~n_colors:16 ~seed:7 (Policy.Base Random) in
  let p2 = Policy.create ~n_colors:16 ~seed:7 (Policy.Base Random) in
  for v = 0 to 99 do
    let c1 = Policy.preferred_color p1 ~vpage:v and c2 = Policy.preferred_color p2 ~vpage:v in
    Alcotest.(check int) "same seed same colors" c1 c2;
    Alcotest.(check bool) "in range" true (c1 >= 0 && c1 < 16)
  done

let test_policy_hinted () =
  let h = Hints.create ~n_colors:8 in
  Hints.set h ~vpage:1 ~color:6;
  let p = Policy.create ~n_colors:8 ~seed:1 (Policy.Hinted { hints = h; fallback = Page_coloring }) in
  Alcotest.(check int) "hint wins" 6 (Policy.preferred_color p ~vpage:1);
  Alcotest.(check int) "fallback for unadvised" 2 (Policy.preferred_color p ~vpage:10);
  Alcotest.(check int) "hit count" 1 (Policy.hint_hits p);
  Alcotest.(check int) "miss count" 1 (Policy.hint_misses p);
  Alcotest.(check string) "name" "cdpc(page-coloring)" (Policy.name p)

let test_policy_hinted_color_count_check () =
  let h = Hints.create ~n_colors:4 in
  Alcotest.check_raises "mismatched color space"
    (Invalid_argument "Policy.create: hint table built for a different color count") (fun () ->
      ignore (Policy.create ~n_colors:8 ~seed:1 (Policy.Hinted { hints = h; fallback = Random })))

let test_kernel_fault_then_hit () =
  let cfg = Helpers.tiny_cfg () in
  let policy = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  let k = Kernel.create ~cfg ~policy () in
  let frame, cost = Kernel.translate k ~cpu:0 ~vpage:12 in
  Alcotest.(check int) "fault cost" cfg.page_fault_cycles cost;
  Alcotest.(check int) "page-coloring color" (12 mod 8) (Pool.color_of (Kernel.pool k) frame);
  let frame', cost' = Kernel.translate k ~cpu:1 ~vpage:12 in
  Alcotest.(check int) "same frame" frame frame';
  Alcotest.(check int) "no second fault cost" 0 cost';
  Alcotest.(check int) "fault count" 1 (Kernel.faults k);
  Alcotest.(check (option int)) "ground truth color" (Some (12 mod 8)) (Kernel.color_of_vpage k 12)

let test_kernel_memory_pressure () =
  let cfg = Helpers.tiny_cfg () in
  let policy = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  (* only one frame per color: second page of a color falls back *)
  let k = Kernel.create ~cfg ~policy ~mem_frames:8 () in
  ignore (Kernel.translate k ~cpu:0 ~vpage:0);
  ignore (Kernel.translate k ~cpu:0 ~vpage:8);
  (* vpage 8 wants color 0 again -> fallback *)
  Alcotest.(check int) "fallback happened" 1 (Pool.fallbacks (Kernel.pool k));
  (* exhaust the rest *)
  for v = 1 to 6 do
    ignore (Kernel.translate k ~cpu:0 ~vpage:v)
  done;
  Alcotest.(check bool) "out of frames raised with faulting cpu/vpage" true
    (try
       ignore (Kernel.translate k ~cpu:3 ~vpage:100);
       false
     with Kernel.Out_of_frames { cpu; vpage } -> cpu = 3 && vpage = 100)

let test_kernel_histogram () =
  let cfg = Helpers.tiny_cfg () in
  let policy = Policy.create ~n_colors:8 ~seed:1 (Policy.Base Page_coloring) in
  let k = Kernel.create ~cfg ~policy () in
  for v = 0 to 15 do
    ignore (Kernel.translate k ~cpu:0 ~vpage:v)
  done;
  let h = Kernel.color_histogram k in
  Alcotest.(check int) "each color granted twice" 2 h.(3);
  Alcotest.(check int) "total" 16 (Array.fold_left ( + ) 0 h)

let suite =
  [
    ( "vm",
      [
        Alcotest.test_case "pool basics" `Quick test_pool_basic;
        Alcotest.test_case "pool fallback nearest" `Quick test_pool_fallback_nearest;
        Alcotest.test_case "pool exhaustion/release" `Quick test_pool_exhaustion_release;
        Alcotest.test_case "pool modular preference" `Quick test_pool_modular_preference;
        Alcotest.test_case "page table" `Quick test_page_table;
        Alcotest.test_case "hints" `Quick test_hints;
        Alcotest.test_case "policy page coloring" `Quick test_policy_page_coloring;
        Alcotest.test_case "policy bin hopping" `Quick test_policy_bin_hopping_cycles;
        Alcotest.test_case "policy bin hopping jitter" `Quick test_policy_bin_hopping_jitter;
        Alcotest.test_case "policy random" `Quick test_policy_random_range_and_seed;
        Alcotest.test_case "policy hinted" `Quick test_policy_hinted;
        Alcotest.test_case "policy hinted check" `Quick test_policy_hinted_color_count_check;
        Alcotest.test_case "kernel fault/hit" `Quick test_kernel_fault_then_hit;
        Alcotest.test_case "kernel memory pressure" `Quick test_kernel_memory_pressure;
        Alcotest.test_case "kernel histogram" `Quick test_kernel_histogram;
      ] );
    Helpers.qsuite "vm:props" [ prop_pool_no_double_alloc ];
  ]
