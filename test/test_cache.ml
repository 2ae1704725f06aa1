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
  Cache.set_dirty_if_present c 0;
  Alcotest.(check bool) "absent line not filled" false (Cache.contains c 0);
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.set_dirty_if_present c 0;
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
  Alcotest.(check int) "stats preserved by flush" 1 (Cache.hits c)

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

(* A corrupt bucket chain can close into a cycle, and then the probe
   that would expose it never returns: [within seconds f] fails the case
   instead of hanging the suite (the signal handler runs at the probe
   loop's poll point). *)
exception Deadline

let within seconds f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline)) in
  let arm s = ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.; it_value = s }) in
  arm seconds;
  let ok = try f () with Deadline -> false in
  arm 0.;
  Sys.set_signal Sys.sigalrm previous;
  ok

(* Reference FA-LRU via a list. *)
let prop_shadow_matches_reference =
  QCheck.Test.make ~name:"shadow matches FA-LRU reference" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 20))
    (fun lines ->
      let s = Shadow.create (geom ~size:512 ~assoc:1 ~line:64) in
      let model = ref [] in
      within 10. (fun () ->
          List.for_all
            (fun l ->
              let got = Shadow.access s l in
              let want = List.mem l !model in
              let without = List.filter (( <> ) l) !model in
              let trimmed =
                if List.length without >= 8 then List.filteri (fun i _ -> i < 7) without else without
              in
              model := l :: trimmed;
              got = want)
            lines))

(* Same oracle, but over a sparse key space and also checking final
   residency and size, so evictions from the line index are exercised,
   not just the hit sequence. *)
let prop_shadow_state_matches_reference =
  QCheck.Test.make ~name:"shadow residency matches FA-LRU reference" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 400) (map (fun k -> k * 977) (int_range 0 40)))
    (fun lines ->
      let s = Shadow.create (geom ~size:512 ~assoc:1 ~line:64) in
      let model = ref [] in
      within 10. (fun () ->
          let seq_ok =
            List.for_all
              (fun l ->
                let got = Shadow.access s l in
                let want = List.mem l !model in
                let without = List.filter (( <> ) l) !model in
                let trimmed =
                  if List.length without >= 8 then List.filteri (fun i _ -> i < 7) without else without
                in
                model := l :: trimmed;
                got = want)
              lines
          in
          seq_ok
          && Shadow.size s = List.length !model
          && List.for_all (Shadow.mem s) !model
          && List.for_all (fun l -> List.mem l !model || not (Shadow.mem s l)) lines))

(* The same FA-LRU oracle at the paper's scale-16 geometry: 64 KiB of
   128 B lines, so 512 slots and 1024 buckets.  Keys are built to share
   bucket chains: lines congruent modulo the bucket count (block k, low
   bits r, with k and r small enough that r lxor k repeats), interleaved
   with lines of frames a power of two apart at one page offset (4 KiB
   pages, 32 lines each) — the aliasing page coloring creates.  Drawing
   from twice the capacity keeps the shadow full and evicting, so
   victims are unlinked from the middle of chains.  After every access
   the hit, [size] and [mem] of every key seen so far must match.  No
   shrinking: a shrink step could hit the deadline again and again. *)
let prop_shadow_matches_reference_at_scale =
  let key i =
    let a = i lsr 1 in
    if i land 1 = 0 then ((a lsr 3) * 1024) + (a land 7)
    else ((5 + (1 lsl (4 + (a lsr 5)))) * 32) + (a land 31)
  in
  let gen = QCheck.Gen.(list_size (int_range 600 2500) (int_range 0 1023)) in
  let print picks = String.concat ";" (List.map string_of_int picks) in
  QCheck.Test.make ~name:"shadow matches FA-LRU reference (512 lines, colliding keys)" ~count:20
    (QCheck.make ~print gen)
    (fun picks ->
      let s = Shadow.create (geom ~size:(64 * 1024) ~assoc:1 ~line:128) in
      let capacity = Shadow.capacity s in
      let last_use = Hashtbl.create 1024 (* resident line -> access index *) in
      let seen = Hashtbl.create 1024 in
      within 10. (fun () ->
          List.for_all
            (fun (step, pick) ->
              let l = key pick in
              Hashtbl.replace seen l ();
              let want = Hashtbl.mem last_use l in
              if (not want) && Hashtbl.length last_use = capacity then begin
                let lru =
                  Hashtbl.fold
                    (fun k u (bk, bu) -> if u < bu then (k, u) else (bk, bu))
                    last_use (-1, max_int)
                in
                Hashtbl.remove last_use (fst lru)
              end;
              Hashtbl.replace last_use l step;
              Shadow.access s l = want
              && Shadow.size s = Hashtbl.length last_use
              && Hashtbl.fold (fun k () ok -> ok && Shadow.mem s k = Hashtbl.mem last_use k) seen true)
            (List.mapi (fun i p -> (i, p)) picks)))

(* A naive per-set model of the cache: each way holds
   [Some (line, dirty, last_use)] or [None]; the victim is the first
   empty way, else the smallest [last_use].  Ops drive both the model
   and {!Cache} over assoc 1/2/4/8 and 1–4 sets, with addresses near
   zero, [min_int] and [max_int] and negative ones, so lines from [lsr]
   span the full non-negative range: every [access] result (hit, dirty flag,
   victim), [probe], [contains] and the counters must agree, and
   [invalidate], [clean] and [set_dirty_if_present] are observed
   through them. *)
let prop_cache_matches_naive_model =
  (* about twice as many lines as the cache holds, so sets fill, hit
     and evict; each line reached from every base *)
  let gen =
    QCheck.Gen.(
      let* assoc = oneofl [ 1; 2; 4; 8 ] and* nsets = oneofl [ 1; 2; 4 ] in
      let addr =
        let+ base = oneofl [ 0; -(1 lsl 20); max_int - (1 lsl 20); min_int ]
        and+ idx = int_range 0 (2 * assoc * nsets)
        and+ byte = int_range 0 63 in
        base + (idx * 64) + byte
      in
      let+ ops = list_size (int_range 1 600) (pair (int_range 0 99) addr) in
      (assoc, nsets, ops))
  in
  let print (assoc, nsets, ops) =
    Printf.sprintf "assoc=%d nsets=%d ops=[%s]" assoc nsets
      (String.concat ";" (List.map (fun (k, a) -> Printf.sprintf "%d,%d" k a) ops))
  in
  QCheck.Test.make ~name:"cache matches naive per-set model" ~count:300 (QCheck.make ~print gen)
    (fun (assoc, nsets, ops) ->
      let line_size = 64 in
      let c = Cache.create (geom ~size:(nsets * assoc * line_size) ~assoc ~line:line_size) in
      let sets = Array.init nsets (fun _ -> Array.make assoc None) in
      let tick = ref 0 and hits = ref 0 and misses = ref 0 in
      let locate addr =
        let line = addr lsr 6 in
        let ways = sets.(line land (nsets - 1)) in
        let rec go i =
          if i = assoc then None
          else match ways.(i) with Some (l, _, _) when l = line -> Some i | _ -> go (i + 1)
        in
        (line, ways, go 0)
      in
      let model_access addr write =
        incr tick;
        let line, ways, way = locate addr in
        match way with
        | Some i ->
          incr hits;
          let _, d, _ = Option.get ways.(i) in
          ways.(i) <- Some (line, d || write, !tick);
          (true, d, -1)
        | None ->
          incr misses;
          let victim = ref 0 in
          (try
             Array.iteri
               (fun i w ->
                 match (w, ways.(!victim)) with
                 | None, _ -> victim := i; raise Exit
                 | Some (_, _, u), Some (_, _, bu) when u < bu -> victim := i
                 | _ -> ())
               ways
           with Exit -> ());
          let evicted, evicted_dirty =
            match ways.(!victim) with Some (l, d, _) -> (l, d) | None -> (-1, false)
          in
          ways.(!victim) <- Some (line, write, !tick);
          (false, evicted_dirty, evicted)
      in
      List.for_all
        (fun (k, addr) ->
          let ok =
            if k < 60 then begin
              let r = Cache.access c ~addr ~write:(k land 1 = 1) in
              let hit, dirty, victim = model_access addr (k land 1 = 1) in
              Cache.res_hit r = hit
              && Cache.res_dirty r = dirty
              && (hit || Cache.res_victim r = victim)
            end
            else begin
              let line, ways, way = locate addr in
              (match way with
              | None -> ()
              | Some i ->
                let _, d, u = Option.get ways.(i) in
                if k < 70 then ways.(i) <- None
                else if k < 80 then ways.(i) <- Some (line, false, u)
                else if k < 90 then ways.(i) <- Some (line, true, u)
                else ignore d);
              if k < 70 then Cache.invalidate c addr
              else if k < 80 then Cache.clean c addr
              else if k < 90 then Cache.set_dirty_if_present c addr;
              true
            end
          in
          let _, ways, way = locate addr in
          let want_probe =
            match way with
            | None -> 0
            | Some i ->
              let _, d, _ = Option.get ways.(i) in
              if d then 3 else 1
          in
          ok
          && Cache.probe c ~addr = want_probe
          && Cache.contains c addr = (way <> None)
          && Cache.hits c = !hits
          && Cache.misses c = !misses)
        ops)

let tlb_insert t vpage frame = ignore (Tlb.insert t ~vpage ~frame)

(* Differential test against a naive eager-LRU reference: a list of
   (vpage, frame, stamp), the victim being the smallest stamp.  Ops are
   (kind, vpage) with kind in [0, 400): lookup, memo-style touch,
   insert, invalidate, and a rare flush so 64-entry TLBs fill up.
   Touch mirrors the machine's translation memo: a 4-entry
   direct-mapped vpage -> (slot, generation) cache, used only while the
   generation is unchanged, so it refreshes slots other than the most
   recent one.  After every op occupancy and a probe of every page must
   match, which pins each eviction victim.

   In the colliding case page [i] is vpage [(i / 8) × nbuckets + i mod 8],
   nbuckets being the TLB index's bucket count (128 at 64 entries; the
   2–8 buckets of the smaller TLBs are shared by every key anyway, so
   there page [i] stays [i]): vpages congruent modulo it, whose folded
   hashes [(i mod 8) lxor (i / 8)] repeat, so [invalidate], refill
   eviction and [flush] unlink keys from the middle of shared bucket
   chains.  A corrupt chain can cycle, so every case runs under the same
   deadline as the shadow's 512-line property. *)
let prop_tlb_matches_reference =
  let gen =
    QCheck.Gen.(
      triple (oneofl [ 1; 2; 4; 64 ]) bool
        (list_size (int_range 1 1000) (pair (int_range 0 399) (int_range 0 1000))))
  in
  let print (entries, colliding, ops) =
    Printf.sprintf "entries=%d colliding=%b ops=[%s]" entries colliding
      (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d,%d" k v) ops))
  in
  QCheck.Test.make ~name:"tlb matches eager-LRU reference" ~count:100 (QCheck.make ~print gen)
    (fun (entries, colliding, ops) ->
      let t = Tlb.create ~entries in
      let universe = (2 * entries) + 3 in
      let nbuckets = Pcolor.Util.Bits.next_pow2 (2 * entries) in
      let lanes = min 8 nbuckets in
      let page i = if colliding then ((i / lanes) * nbuckets) + (i mod lanes) else i in
      let model = ref [] (* (vpage, frame, stamp) *) and tick = ref 0 in
      let memo = Array.make 4 (-1, 0, 0) (* (vpage, slot, generation) *) in
      let remember v slot = memo.(v land 3) <- (v, slot, Tlb.generation t) in
      let find v = List.find_opt (fun (v', _, _) -> v' = v) !model in
      let drop v = model := List.filter (fun (v', _, _) -> v' <> v) !model in
      let stamp v f =
        incr tick;
        drop v;
        model := (v, f, !tick) :: !model
      in
      let ok = ref true in
      let check b = if not b then ok := false in
      within 10. @@ fun () ->
      List.iteri
        (fun step (k, v) ->
          let v = page (v mod universe) in
          (if k < 150 then begin
             let slot = Tlb.lookup_slot t v in
             match find v with
             | Some (_, f, _) ->
               stamp v f;
               check (slot >= 0 && Tlb.frame_at t slot = f);
               remember v slot
             | None -> check (slot = -1)
           end
           else if k < 225 then begin
             match memo.(v land 3) with
             | mv, slot, g when mv = v && g = Tlb.generation t -> (
               match find v with
               | Some (_, f, _) ->
                 check (Tlb.frame_at t slot = f);
                 Tlb.touch t slot;
                 stamp v f
               | None -> check false)
             | _ -> ()
           end
           else if k < 375 then begin
             let f = (v * 10_000) + step in
             (if find v = None && List.length !model >= entries then
                match List.sort (fun (_, _, a) (_, _, b) -> compare a b) !model with
                | (victim, _, _) :: _ -> drop victim
                | [] -> ());
             stamp v f;
             let slot = Tlb.insert t ~vpage:v ~frame:f in
             check (Tlb.frame_at t slot = f);
             remember v slot
           end
           else if k < 399 then begin
             Tlb.invalidate t v;
             drop v
           end
           else begin
             Tlb.flush t;
             model := []
           end);
          check (Tlb.occupancy t = List.length !model);
          for u = 0 to universe - 1 do
            let u = page u in
            check (Tlb.probe_frame t u = match find u with Some (_, f, _) -> f | None -> -1)
          done)
        ops;
      !ok)

let test_tlb_lru () =
  let t = Tlb.create ~entries:2 in
  Alcotest.(check int) "miss" (-1) (Tlb.lookup_slot t 1);
  tlb_insert t 1 10;
  tlb_insert t 2 20;
  Alcotest.(check int) "hit 1" 10 (Tlb.frame_at t (Tlb.lookup_slot t 1));
  tlb_insert t 3 30;
  (* page 2 was LRU *)
  Alcotest.(check int) "2 evicted" (-1) (Tlb.probe_frame t 2);
  Alcotest.(check int) "1 kept" 10 (Tlb.probe_frame t 1);
  Alcotest.(check int) "occupancy" 2 (Tlb.occupancy t)

let test_tlb_probe_no_stats () =
  let t = Tlb.create ~entries:4 in
  List.iter (fun v -> tlb_insert t v v) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "probe hit" 1 (Tlb.probe_frame t 1);
  Alcotest.(check int) "probe miss" (-1) (Tlb.probe_frame t 99);
  (* page 1 is still the LRU entry: the probe did not refresh it *)
  tlb_insert t 5 5;
  Alcotest.(check int) "probed page evicted" (-1) (Tlb.probe_frame t 1);
  Alcotest.(check int) "2 kept" 2 (Tlb.probe_frame t 2)

let test_tlb_flush_invalidate () =
  let t = Tlb.create ~entries:4 in
  tlb_insert t 1 1;
  tlb_insert t 2 2;
  Tlb.invalidate t 1;
  Alcotest.(check int) "invalidated" (-1) (Tlb.probe_frame t 1);
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
  Bus.reset b;
  Alcotest.(check int) "reset" 0 (Bus.busy_cycles b)

let test_bus_occupancy_stretch () =
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
        prop_shadow_matches_reference_at_scale;
        prop_cache_matches_naive_model;
        prop_tlb_matches_reference;
        prop_stretch_monotone;
      ];
  ]
