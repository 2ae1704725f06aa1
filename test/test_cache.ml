(* Tests for the set-associative cache, the fully-associative shadow,
   the TLB and the bus model. *)

module Cache = Pcolor.Memsim.Cache
module Shadow = Pcolor.Memsim.Shadow
module Tlb = Pcolor.Memsim.Tlb
module Bus = Pcolor.Memsim.Bus

let geom ~size ~assoc ~line : Pcolor.Memsim.Config.cache_geom = { size; assoc; line }

(* 4 lines of 64 B, direct-mapped: 4 sets. *)
let dm4 () = Cache.create (geom ~size:256 ~assoc:1 ~line:64)

(* 4 lines, 2-way: 2 sets. *)
let w2 () = Cache.create (geom ~size:256 ~assoc:2 ~line:64)

let is_hit r = Cache.res_hit r

let test_dm_basic () =
  let c = dm4 () in
  Alcotest.(check bool) "cold miss" false (is_hit (Cache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "hit same line" true (is_hit (Cache.access c ~addr:63 ~write:false));
  Alcotest.(check bool) "miss other set" false (is_hit (Cache.access c ~addr:64 ~write:false));
  (* addr 1024 maps to set 0 (1024/64 = 16, 16 mod 4 = 0): evicts line 0 *)
  let r = Cache.access c ~addr:1024 ~write:false in
  Alcotest.(check bool) "expected conflict eviction" false (Cache.res_hit r);
  Alcotest.(check int) "evicted line 0" 0 (Cache.res_victim r);
  Alcotest.(check bool) "clean victim" false (Cache.res_dirty r);
  Alcotest.(check bool) "original line gone" false (Cache.contains c 0)

let test_dirty_writeback () =
  let c = dm4 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  let r = Cache.access c ~addr:1024 ~write:false in
  Alcotest.(check bool) "expected miss" false (Cache.res_hit r);
  Alcotest.(check bool) "dirty victim" true (Cache.res_dirty r)

let test_hit_reports_prior_dirty () =
  let c = dm4 () in
  ignore (Cache.access c ~addr:0 ~write:false);
  let r = Cache.access c ~addr:0 ~write:true in
  Alcotest.(check bool) "expected hit" true (Cache.res_hit r);
  Alcotest.(check bool) "was clean" false (Cache.res_dirty r);
  let r = Cache.access c ~addr:0 ~write:true in
  Alcotest.(check bool) "expected hit" true (Cache.res_hit r);
  Alcotest.(check bool) "now dirty" true (Cache.res_dirty r)

let test_lru_two_way () =
  let c = w2 () in
  (* set 0 holds lines 0 and 2 (even line numbers with 2 sets) *)
  ignore (Cache.access c ~addr:0 ~write:false);     (* line 0 *)
  ignore (Cache.access c ~addr:128 ~write:false);   (* line 2, same set *)
  ignore (Cache.access c ~addr:0 ~write:false);     (* touch line 0: now MRU *)
  let r = Cache.access c ~addr:256 ~write:false in  (* line 4: evicts LRU = line 2 *)
  Alcotest.(check bool) "expected miss" false (Cache.res_hit r);
  Alcotest.(check int) "evicts LRU" 2 (Cache.res_victim r);
  Alcotest.(check bool) "line 0 kept" true (Cache.contains c 0)

let test_invalidate_clean () =
  let c = dm4 () in
  ignore (Cache.access c ~addr:0 ~write:true);
  Alcotest.(check bool) "dirty before invalidate" true (Cache.res_dirty (Cache.probe c ~addr:0));
  Cache.invalidate c 0;
  Alcotest.(check bool) "invalidated" false (Cache.contains c 0);
  Cache.invalidate c 0;
  Alcotest.(check bool) "second invalidate no-op" false (Cache.contains c 0);
  (* the dropped dirty line left an empty way: no victim to write back *)
  let r = Cache.access c ~addr:0 ~write:false in
  Alcotest.(check int) "empty way refilled" (-1) (Cache.res_victim r);
  Alcotest.(check bool) "no dirty victim" false (Cache.res_dirty r);
  ignore (Cache.access c ~addr:64 ~write:true);
  Cache.clean c 64;
  let r = Cache.access c ~addr:64 ~write:false in
  Alcotest.(check bool) "expected hit" true (Cache.res_hit r);
  Alcotest.(check bool) "cleaned" false (Cache.res_dirty r)

let test_set_dirty_if_present () =
  let c = dm4 () in
  Alcotest.(check bool) "absent" false (Cache.set_dirty_if_present c 0);
  ignore (Cache.access c ~addr:0 ~write:false);
  Alcotest.(check bool) "present" true (Cache.set_dirty_if_present c 0);
  let r = Cache.access c ~addr:1024 ~write:false in
  Alcotest.(check bool) "expected miss" false (Cache.res_hit r);
  Alcotest.(check bool) "became dirty" true (Cache.res_dirty r)

let test_flush_and_stats () =
  let c = dm4 () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.contains c 0);
  Alcotest.(check int) "stats preserved by flush" 1 (Cache.hits c);
  Cache.reset_stats c;
  Alcotest.(check int) "stats reset" 0 (Cache.hits c)

(* Reference model: set-associative LRU via association lists. *)
let reference_model ~nsets ~assoc trace =
  let sets = Array.make nsets [] in
  List.map
    (fun line ->
      let s = line mod nsets in
      let present = List.mem line sets.(s) in
      let without = List.filter (( <> ) line) sets.(s) in
      let truncated = if List.length without >= assoc then List.filteri (fun i _ -> i < assoc - 1) without else without in
      sets.(s) <- line :: truncated;
      present)
    trace

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"set-assoc LRU matches reference model" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 31))
    (fun lines ->
      let c = w2 () in
      let got = List.map (fun l -> is_hit (Cache.access c ~addr:(l * 64) ~write:false)) lines in
      let want = reference_model ~nsets:2 ~assoc:2 lines in
      got = want)

let prop_resident_bounded =
  QCheck.Test.make ~name:"resident lines bounded by capacity" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 63))
    (fun lines ->
      let c = dm4 () in
      List.iter (fun l -> ignore (Cache.access c ~addr:(l * 64) ~write:false)) lines;
      List.length (Cache.resident_lines c) <= 4)

let test_shadow_lru () =
  let s = Shadow.create (geom ~size:256 ~assoc:1 ~line:64) in
  Alcotest.(check int) "capacity" 4 (Shadow.capacity s);
  Alcotest.(check bool) "miss 0" false (Shadow.access s 0);
  Alcotest.(check bool) "miss 1" false (Shadow.access s 1);
  Alcotest.(check bool) "miss 2" false (Shadow.access s 2);
  Alcotest.(check bool) "miss 3" false (Shadow.access s 3);
  Alcotest.(check bool) "hit 0" true (Shadow.access s 0);
  (* insert 4: evicts LRU = 1 *)
  Alcotest.(check bool) "miss 4" false (Shadow.access s 4);
  Alcotest.(check bool) "1 evicted" false (Shadow.mem s 1);
  Alcotest.(check bool) "0 kept" true (Shadow.mem s 0);
  Alcotest.(check int) "size" 4 (Shadow.size s)

(* Reference FA-LRU via a list. *)
let prop_shadow_matches_reference =
  QCheck.Test.make ~name:"shadow matches FA-LRU reference" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 20))
    (fun lines ->
      let s = Shadow.create (geom ~size:512 ~assoc:1 ~line:64) in
      let model = ref [] in
      List.for_all
        (fun l ->
          let got = Shadow.access s l in
          let want = List.mem l !model in
          let without = List.filter (( <> ) l) !model in
          let trimmed = if List.length without >= 8 then List.filteri (fun i _ -> i < 7) without else without in
          model := l :: trimmed;
          got = want)
        lines)

(* Same oracle, but over a sparse key space (lots of Itab collisions and
   removals) and also checking final residency and size, so the table's
   backward-shift deletion is exercised, not just the hit sequence. *)
let prop_shadow_state_matches_reference =
  QCheck.Test.make ~name:"shadow residency matches FA-LRU reference" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 400) (map (fun k -> k * 977) (int_range 0 40)))
    (fun lines ->
      let s = Shadow.create (geom ~size:512 ~assoc:1 ~line:64) in
      let model = ref [] in
      let seq_ok =
        List.for_all
          (fun l ->
            let got = Shadow.access s l in
            let want = List.mem l !model in
            let without = List.filter (( <> ) l) !model in
            let trimmed = if List.length without >= 8 then List.filteri (fun i _ -> i < 7) without else without in
            model := l :: trimmed;
            got = want)
          lines
      in
      seq_ok
      && Shadow.size s = List.length !model
      && List.for_all (Shadow.mem s) !model
      && List.for_all (fun l -> List.mem l !model || not (Shadow.mem s l)) lines)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 in
  Alcotest.(check (option int)) "miss" None (Tlb.lookup t 1);
  Tlb.insert t ~vpage:1 ~frame:10;
  Tlb.insert t ~vpage:2 ~frame:20;
  Alcotest.(check (option int)) "hit 1" (Some 10) (Tlb.lookup t 1);
  Tlb.insert t ~vpage:3 ~frame:30;
  (* page 2 was LRU *)
  Alcotest.(check (option int)) "2 evicted" None (Tlb.probe t 2);
  Alcotest.(check (option int)) "1 kept" (Some 10) (Tlb.probe t 1);
  Alcotest.(check int) "occupancy" 2 (Tlb.occupancy t)

let test_tlb_probe_no_stats () =
  let t = Tlb.create ~entries:4 in
  Tlb.insert t ~vpage:1 ~frame:1;
  let h = Tlb.hits t and m = Tlb.misses t in
  ignore (Tlb.probe t 1);
  ignore (Tlb.probe t 99);
  Alcotest.(check int) "hits unchanged" h (Tlb.hits t);
  Alcotest.(check int) "misses unchanged" m (Tlb.misses t)

let test_tlb_flush_invalidate () =
  let t = Tlb.create ~entries:4 in
  Tlb.insert t ~vpage:1 ~frame:1;
  Tlb.insert t ~vpage:2 ~frame:2;
  Tlb.invalidate t 1;
  Alcotest.(check (option int)) "invalidated" None (Tlb.probe t 1);
  Tlb.flush t;
  Alcotest.(check int) "flushed" 0 (Tlb.occupancy t)

let test_bus_accounting () =
  let b = Bus.create () in
  Bus.add_data b 100;
  Bus.add_writeback b 50;
  Bus.add_upgrade b 10;
  Alcotest.(check int) "busy" 160 (Bus.busy_cycles b);
  let d, w, u = Bus.categories b in
  Alcotest.(check (list int)) "categories" [ 100; 50; 10 ] [ d; w; u ];
  let b2 = Bus.create () in
  Bus.add_data b2 1;
  Bus.add_into b2 b;
  Alcotest.(check int) "add_into" 161 (Bus.busy_cycles b2);
  Bus.reset b;
  Alcotest.(check int) "reset" 0 (Bus.busy_cycles b)

let test_bus_occupancy_stretch () =
  Alcotest.(check (float 1e-9)) "occupancy" 0.5 (Bus.occupancy ~busy:50 ~wall:100);
  Alcotest.(check (float 1e-9)) "occupancy zero wall" 0.0 (Bus.occupancy ~busy:50 ~wall:0);
  Alcotest.(check (float 1e-9)) "no stretch when idle" 1.0 (Bus.stretch_factor 0.2);
  Alcotest.(check bool) "stretch grows" true (Bus.stretch_factor 0.9 > Bus.stretch_factor 0.6);
  Alcotest.(check bool) "stretch capped" true (Bus.stretch_factor 5.0 <= 20.0)

let prop_stretch_monotone =
  QCheck.Test.make ~name:"stretch factor monotone" ~count:200
    QCheck.(pair (float_bound_inclusive 1.2) (float_bound_inclusive 1.2))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Bus.stretch_factor lo <= Bus.stretch_factor hi +. 1e-9)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "direct-mapped basics" `Quick test_dm_basic;
        Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
        Alcotest.test_case "hit reports prior dirty" `Quick test_hit_reports_prior_dirty;
        Alcotest.test_case "2-way LRU" `Quick test_lru_two_way;
        Alcotest.test_case "invalidate/clean" `Quick test_invalidate_clean;
        Alcotest.test_case "set_dirty_if_present" `Quick test_set_dirty_if_present;
        Alcotest.test_case "flush and stats" `Quick test_flush_and_stats;
        Alcotest.test_case "shadow FA-LRU" `Quick test_shadow_lru;
        Alcotest.test_case "tlb LRU" `Quick test_tlb_lru;
        Alcotest.test_case "tlb probe side-effect-free" `Quick test_tlb_probe_no_stats;
        Alcotest.test_case "tlb flush/invalidate" `Quick test_tlb_flush_invalidate;
        Alcotest.test_case "bus accounting" `Quick test_bus_accounting;
        Alcotest.test_case "bus occupancy/stretch" `Quick test_bus_occupancy_stretch;
      ] );
    Helpers.qsuite "cache:props"
      [
        prop_cache_matches_reference;
        prop_resident_bounded;
        prop_shadow_matches_reference;
        prop_shadow_state_matches_reference;
        prop_stretch_monotone;
      ];
  ]
