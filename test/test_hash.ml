(* Tests for the hashed/sliced LLC subsystem (DESIGN §16): the slice
   hash (GF(2) matrix algebra, presets), the multi-slice external
   cache, the eviction-set hash probe, classified frame pools, and
   hash-aware CDPC end to end. *)

module Ahash = Pcolor.Memsim.Ahash
module Slice = Pcolor.Memsim.Slice
module Cache = Pcolor.Memsim.Cache
module Config = Pcolor.Memsim.Config
module Probe = Pcolor.Workloads.Probe
module Pool = Pcolor.Vm.Frame_pool
module Run = Pcolor.Runtime.Run
module Json = Pcolor.Obs.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- Ahash: matrix algebra and presets ---- *)

let test_identity_is_mod () =
  let h = Ahash.resolve Ahash.Identity ~slice_bits:2 ~group_bits:3 in
  for frame = 0 to 1000 do
    Alcotest.(check int)
      (Printf.sprintf "frame %d" frame)
      (frame mod 32) (Ahash.bin_of h frame)
  done

let test_spec_strings () =
  List.iter
    (fun s ->
      match Ahash.spec_of_string (Ahash.spec_to_string s) with
      | Ok s' -> Alcotest.(check bool) (Ahash.spec_to_string s) true (s = s')
      | Error e -> Alcotest.fail e)
    [ Ahash.Identity; Ahash.Xor_fold; Ahash.Sandybridge; Ahash.Masks [| 0x18; 0x30 |] ];
  (match Ahash.spec_of_string "xor_fold" with
  | Ok Ahash.Xor_fold -> ()
  | _ -> Alcotest.fail "underscore alias");
  match Ahash.spec_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense accepted"

let test_rank () =
  Alcotest.(check int) "independent" 3 (Ahash.rank [| 1; 2; 4 |]);
  (* 3 xor 5 = 6: one dependent row *)
  Alcotest.(check int) "dependent" 2 (Ahash.rank [| 3; 5; 6 |]);
  Alcotest.(check int) "zero row" 1 (Ahash.rank [| 0; 7 |])

let test_canonical () =
  (* RREF pins: row space of {110, 101} has canonical {101, 110} *)
  Alcotest.(check (array int)) "pin" [| 5; 6 |] (Ahash.canonical [| 6; 5 |]);
  (* row operations preserve the canonical form *)
  let a = [| 0x18; 0x30 |] in
  let b = [| 0x30; 0x18 lxor 0x30 |] in
  Alcotest.(check (array int)) "row ops invariant" (Ahash.canonical a) (Ahash.canonical b);
  (* different row spaces differ *)
  Alcotest.(check bool) "distinct spaces" false
    (Ahash.canonical [| 0x18 |] = Ahash.canonical [| 0x28 |])

let test_resolve_rejects () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": accepted")
  in
  expect_invalid "zero row" (fun () ->
      Ahash.resolve (Ahash.Masks [| 0 |]) ~slice_bits:1 ~group_bits:2);
  expect_invalid "group-bit tap" (fun () ->
      Ahash.resolve (Ahash.Masks [| 0x3 |]) ~slice_bits:1 ~group_bits:2);
  expect_invalid "rank deficient" (fun () ->
      Ahash.resolve (Ahash.Masks [| 0x18; 0x18 |]) ~slice_bits:2 ~group_bits:2);
  expect_invalid "sandybridge > 2 slice bits" (fun () ->
      Ahash.resolve Ahash.Sandybridge ~slice_bits:3 ~group_bits:2)

let test_presets_full_rank () =
  List.iter
    (fun spec ->
      List.iter
        (fun slice_bits ->
          let h = Ahash.resolve spec ~slice_bits ~group_bits:2 in
          Alcotest.(check int)
            (Printf.sprintf "%s/%d rank" (Ahash.name h) slice_bits)
            slice_bits
            (Ahash.rank (Ahash.masks h));
          (* every slice reachable: sweep enough frames *)
          let seen = Array.make (Ahash.n_slices h) false in
          for frame = 0 to 4095 do
            seen.(Ahash.slice_of h frame) <- true
          done;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d all slices reachable" (Ahash.name h) slice_bits)
            true
            (Array.for_all (fun x -> x) seen))
        [ 1; 2 ])
    [ Ahash.Identity; Ahash.Xor_fold; Ahash.Sandybridge ]

(* QCheck: the constant-time XOR-fold parity agrees with a bit-serial
   popcount reference, over random frames (all 63 bits in play) ×
   random full-rank masks and the three presets at random geometries. *)
let reference_slice_of masks frame =
  let s = ref 0 in
  Array.iteri
    (fun i m -> s := !s lor ((Pcolor.Util.Bits.popcount (frame land m) land 1) lsl i))
    masks;
  !s

let gen_frame =
  QCheck.Gen.(
    oneof
      [ int_bound 4095; int_range 0 max_int; map (fun b -> (1 lsl b) - 1) (int_range 1 62) ])

let gen_hash =
  let open QCheck.Gen in
  let* group_bits = int_range 0 6 in
  let* pick = int_bound 3 in
  match pick with
  | 0 | 1 | 2 ->
    let spec = [| Ahash.Identity; Ahash.Xor_fold; Ahash.Sandybridge |].(pick) in
    let+ slice_bits = int_range 1 2 in
    Ahash.resolve spec ~slice_bits ~group_bits
  | _ ->
    let* slice_bits = int_range 1 4 in
    (* rows anywhere above the group bits, up to bit 62; rejection-
       sample to full rank *)
    let row = map (fun r -> r land lnot ((1 lsl group_bits) - 1)) (int_range 0 max_int) in
    let rec full_rank () =
      let* rows = array_repeat slice_bits row in
      if Ahash.rank rows = slice_bits then return rows else full_rank ()
    in
    let+ rows = full_rank () in
    Ahash.resolve (Ahash.Masks rows) ~slice_bits ~group_bits

let qcheck_slice_of_reference =
  QCheck.Test.make ~name:"slice_of = popcount-parity reference" ~count:300
    (QCheck.make
       ~print:(fun (h, frames) ->
         Printf.sprintf "%s (group bits %d) on [%s]"
           (Ahash.spec_to_string (Ahash.Masks (Ahash.masks h)))
           (Ahash.group_bits h)
           (String.concat "; " (List.map string_of_int frames)))
       QCheck.Gen.(pair gen_hash (list_repeat 40 gen_frame)))
    (fun (h, frames) ->
      let masks = Ahash.masks h in
      List.for_all (fun f -> Ahash.slice_of h f = reference_slice_of masks f) frames)

(* ---- Slice: the multi-slice external cache ---- *)

let geom = { Config.size = 8192; assoc = 2; line = 128 }

(* A 1-slice Slice must be byte-identical to the plain Cache: same
   packed access results, same counters, on a scattered access mix. *)
let test_one_slice_identity () =
  let c = Cache.create geom in
  let s =
    Slice.create geom ~n_slices:1
      ~hash:(Ahash.resolve Ahash.Identity ~slice_bits:0 ~group_bits:3)
      ~page_bits:10
  in
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  for i = 0 to 5000 do
    let addr = next () land 0xFFFFF in
    let write = next () land 1 = 1 in
    let rc = Cache.access c ~addr ~write in
    let rs = Slice.access s ~addr ~write in
    Alcotest.(check int) (Printf.sprintf "access %d" i) rc rs
  done;
  Alcotest.(check int) "hits" (Cache.hits c) (Slice.hits s);
  Alcotest.(check int) "misses" (Cache.misses c) (Slice.misses s);
  Alcotest.(check (list int)) "resident" (Cache.resident_lines c) (Slice.resident_lines s)

let test_multi_slice_routing () =
  let hash = Ahash.resolve Ahash.Xor_fold ~slice_bits:1 ~group_bits:2 in
  let s = Slice.create geom ~n_slices:2 ~hash ~page_bits:10 in
  Alcotest.(check int) "total sets preserved" (geom.Config.size / geom.Config.line / geom.Config.assoc)
    (Slice.n_sets s);
  (* global set ids are slice-major: consistent with the hash's verdict *)
  let local_sets = Slice.n_sets s / 2 in
  for frame = 0 to 255 do
    let addr = frame lsl 10 in
    let slice = Slice.set_of_line s (Slice.line_of s addr) / local_sets in
    Alcotest.(check int)
      (Printf.sprintf "frame %d slice" frame)
      (Ahash.slice_of hash frame) slice;
    ignore (Slice.access s ~addr ~write:false)
  done;
  Alcotest.(check bool) "accesses accounted" true (Slice.hits s + Slice.misses s = 256)

(* The page-granular routing shortcut: every byte of every line of a
   page routes to the page base's slice, which is the hash of the frame
   number — for every preset and slice count of the geometry. *)
let qcheck_route_page_granular =
  let gen =
    QCheck.Gen.(
      quad (int_bound 2) (int_range 0 2) (int_range 0 ((1 lsl 50) - 1)) (int_bound 127))
  in
  QCheck.Test.make ~name:"every line of a page routes with the page base" ~count:200
    (QCheck.make
       ~print:(fun (p, sb, frame, off) ->
         Printf.sprintf "preset %d, %d slice bits, frame %d, +%d" p sb frame off)
       gen)
    (fun (pick, slice_bits, frame, off) ->
      let spec = [| Ahash.Identity; Ahash.Xor_fold; Ahash.Sandybridge |].(pick) in
      (* geom: 4 colors of 1 KiB pages *)
      let hash = Ahash.resolve spec ~slice_bits ~group_bits:(2 - slice_bits) in
      let s = Slice.create geom ~n_slices:(1 lsl slice_bits) ~hash ~page_bits:10 in
      let base = frame lsl 10 in
      let expected = if slice_bits = 0 then 0 else Ahash.slice_of hash frame in
      Slice.route s base = expected
      && List.for_all
           (fun l -> Slice.route s (base + (l * geom.Config.line) + off) = expected)
           (List.init (1024 / geom.Config.line) Fun.id))

(* The route memo: [route] (and the set id, which routes through the
   same memo) must equal the hash of the frame, over address streams
   whose frames alias in the memo — they are congruent modulo 4096, so
   they share a slot in any power-of-two memo up to that size — and
   interleave, so every probe may find another frame's entry in its
   slot.  2 and 4 slices × xor-fold, sandybridge and random full-rank
   masks. *)
let qcheck_route_memo_aliasing =
  let gen =
    let open QCheck.Gen in
    let* slice_bits = int_range 1 2 in
    let group_bits = 2 - slice_bits in
    let* pick = int_bound 2 in
    let* hash =
      match pick with
      | 0 -> return (Ahash.resolve Ahash.Xor_fold ~slice_bits ~group_bits)
      | 1 -> return (Ahash.resolve Ahash.Sandybridge ~slice_bits ~group_bits)
      | _ ->
        let row = map (fun r -> r land lnot ((1 lsl group_bits) - 1)) (int_bound ((1 lsl 40) - 1)) in
        let rec full_rank () =
          let* rows = array_repeat slice_bits row in
          if Ahash.rank rows = slice_bits then return rows else full_rank ()
        in
        let+ rows = full_rank () in
        Ahash.resolve (Ahash.Masks rows) ~slice_bits ~group_bits
    in
    let* base = int_bound ((1 lsl 36) - 1) in
    let+ stream = list_size (int_range 1 60) (pair (int_bound 7) (int_bound 1023)) in
    (hash, base, stream)
  in
  QCheck.Test.make ~name:"route memo agrees with the hash on aliasing frames" ~count:300
    (QCheck.make
       ~print:(fun (h, base, stream) ->
         Printf.sprintf "%s, base frame %d, [%s]"
           (Ahash.spec_to_string (Ahash.Masks (Ahash.masks h)))
           base
           (String.concat "; " (List.map (fun (k, off) -> Printf.sprintf "%d+%d" k off) stream)))
       gen)
    (fun (hash, base, stream) ->
      let n_slices = Ahash.n_slices hash in
      let s = Slice.create geom ~n_slices ~hash ~page_bits:10 in
      let local_sets = Slice.n_sets s / n_slices in
      List.for_all
        (fun (k, off) ->
          let frame = base + (k * 4096) in
          let addr = (frame lsl 10) + off in
          let expected = Ahash.slice_of hash frame in
          Slice.route s addr = expected
          && Slice.set_of_line s (Slice.line_of s addr) / local_sets = expected)
        stream)

(* Frame teardown on a 4-CPU, 4-slice sandybridge machine: after
   [invalidate_frame_everywhere] no line of the frame survives on any
   CPU, while a resident line of another frame in the same slice (and a
   disjoint set range) does. *)
let test_invalidate_frame_everywhere () =
  let module M = Pcolor.Memsim.Machine in
  let cfg = Helpers.tiny_cfg ~n_cpus:4 ~l2_slices:4 ~l2_hash:Ahash.Sandybridge () in
  let hash = Config.resolved_hash cfg in
  let groups = Ahash.groups hash in
  let frame = 5 in
  let rec same_slice g =
    if Ahash.slice_of hash g = Ahash.slice_of hash frame && g mod groups <> frame mod groups then g
    else same_slice (g + 1)
  in
  let other = same_slice (frame + 1) in
  (* vpage 0 -> [frame], vpage 1 -> [other] *)
  let translate ~cpu:_ ~vpage = ((if vpage = 0 then frame else other), 0) in
  let m = M.create cfg in
  let page = cfg.Config.page_size and line = cfg.Config.l2.line in
  let lines_of f = List.init (page / line) (fun l -> (f * page) + (l * line)) in
  let resident cpu paddr = Slice.contains (M.l2_cache m ~cpu) paddr in
  for cpu = 0 to 3 do
    List.iter
      (fun paddr -> M.access m ~cpu ~vaddr:(paddr - (frame * page)) ~write:false ~translate)
      (lines_of frame);
    M.access m ~cpu ~vaddr:page ~write:false ~translate
  done;
  let other_line = other * page in
  for cpu = 0 to 3 do
    List.iter
      (fun paddr ->
        Alcotest.(check bool)
          (Printf.sprintf "cpu%d filled 0x%x" cpu paddr)
          true (resident cpu paddr))
      (other_line :: lines_of frame)
  done;
  M.invalidate_frame_everywhere m ~frame;
  for cpu = 0 to 3 do
    List.iter
      (fun paddr ->
        Alcotest.(check bool)
          (Printf.sprintf "cpu%d dropped 0x%x" cpu paddr)
          false (resident cpu paddr))
      (lines_of frame);
    Alcotest.(check bool)
      (Printf.sprintf "cpu%d kept the other frame" cpu)
      true (resident cpu other_line)
  done

(* Two frames of equal believed color but different slices must not
   conflict; two of different believed color in one bin must. *)
let test_slice_conflicts_follow_bins () =
  let hash = Ahash.resolve Ahash.Xor_fold ~slice_bits:1 ~group_bits:2 in
  let s = Slice.create { geom with Config.assoc = 1 } ~n_slices:2 ~hash ~page_bits:10 in
  let bin f = Ahash.bin_of hash f in
  (* find a pair with equal color mod 8 but different bins, and a pair
     with equal bins; direct-mapped so same bin with same set ⟹ evict *)
  let conflict f g =
    Slice.flush s;
    ignore (Slice.access s ~addr:(f lsl 10) ~write:false);
    ignore (Slice.access s ~addr:(g lsl 10) ~write:false);
    let before = Slice.misses s in
    ignore (Slice.access s ~addr:(f lsl 10) ~write:false);
    Slice.misses s > before
  in
  let checked = ref 0 in
  for f = 0 to 63 do
    for g = f + 1 to 63 do
      (* probe pairs sharing the set-index (group) bits so residual
         set-position differences can't mask the slice verdict *)
      if f land 3 = g land 3 && f land 15 <> g land 15 then begin
        incr checked;
        Alcotest.(check bool)
          (Printf.sprintf "conflict(%d,%d)" f g)
          (bin f = bin g) (conflict f g)
      end
    done
  done;
  Alcotest.(check bool) "pairs exercised" true (!checked > 100)

(* ---- Probe: eviction-set hash recovery ---- *)

let probe_cfg ?(l2_slices = 2) ?(l2_hash = Ahash.Xor_fold) () =
  Helpers.tiny_cfg ~l2_assoc:2 ~l2_slices ~l2_hash ()

let test_probe_identity () =
  match Probe.self_test (probe_cfg ~l2_slices:1 ~l2_hash:Ahash.Identity ()) with
  | Ok r ->
    Alcotest.(check int) "one slice" 1 r.Probe.n_slices;
    Alcotest.(check int) "no mask rows" 0 (Array.length r.Probe.masks)
  | Error (_, e) -> Alcotest.fail e

let test_probe_recovers_presets () =
  List.iter
    (fun (slices, spec) ->
      match Probe.self_test (probe_cfg ~l2_slices:slices ~l2_hash:spec ()) with
      | Ok r ->
        Alcotest.(check int)
          (Ahash.spec_to_string spec ^ " slice count")
          slices r.Probe.n_slices
      | Error (_, e) -> Alcotest.fail (Ahash.spec_to_string spec ^ ": " ^ e))
    [
      (2, Ahash.Identity);
      (2, Ahash.Xor_fold);
      (2, Ahash.Sandybridge);
      (4, Ahash.Xor_fold);
      (4, Ahash.Sandybridge);
    ]

let test_probe_render () =
  let r = Probe.recover (probe_cfg ()) in
  let s = Probe.render r in
  Alcotest.(check bool) "names slice count" true
    (String.length s > 0 && r.Probe.tests > 0);
  Alcotest.(check bool) "mentions slice bit" true (contains s "slice bit")

(* QCheck: the probe recovers any random full-rank in-window hash. *)
let qcheck_probe_random_masks =
  let open QCheck in
  let gen_masks =
    (* tiny geometry (assoc 2 → 4 colors) with 4 slices: group_bits = 0,
       taps anywhere in the probed window [0, 16); rejection-sample to
       full rank *)
    let gen st =
      let row () =
        let rec go () =
          let m = QCheck.Gen.int_bound 0xFFFF st in
          if m = 0 then go () else m
        in
        go ()
      in
      let rec masks () =
        let m = [| row (); row () |] in
        if Ahash.rank m = 2 then m else masks ()
      in
      masks ()
    in
    make ~print:(fun m -> Ahash.spec_to_string (Ahash.Masks m)) gen
  in
  Test.make ~name:"probe recovers random full-rank hashes" ~count:25 gen_masks (fun masks ->
      let cfg = Helpers.tiny_cfg ~l2_assoc:2 ~l2_slices:4 ~l2_hash:(Ahash.Masks masks) () in
      match Probe.self_test cfg with Ok _ -> true | Error (_, e) -> Test.fail_report e)

(* ---- Frame pool classification ---- *)

let test_pool_classified_identity_equiv () =
  let plain = Pool.create ~frames:64 ~n_colors:8 in
  let hashed = Pool.create_classified ~classify:(fun f -> f mod 8) ~frames:64 ~n_colors:8 in
  for i = 0 to 80 do
    let preferred = i * 3 mod 8 in
    let a = Pool.alloc plain ~preferred and b = Pool.alloc hashed ~preferred in
    Alcotest.(check (option int)) (Printf.sprintf "alloc %d" i) a b
  done;
  Alcotest.(check int) "honored" (Pool.honored plain) (Pool.honored hashed);
  Alcotest.(check int) "fallbacks" (Pool.fallbacks plain) (Pool.fallbacks hashed)

let test_pool_classified_bins () =
  let hash = Ahash.resolve Ahash.Xor_fold ~slice_bits:1 ~group_bits:2 in
  let classify f = Ahash.bin_of hash f in
  let p = Pool.create_classified ~classify ~frames:64 ~n_colors:8 in
  for b = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "bin %d population" b) 8 (Pool.free_of_color p b)
  done;
  (* every allocation honors its *bin*, not the positional color *)
  for i = 0 to 63 do
    let preferred = i mod 8 in
    match Pool.alloc p ~preferred with
    | Some f -> Alcotest.(check int) (Printf.sprintf "alloc %d bin" i) preferred (classify f)
    | None -> Alcotest.fail "exhausted early"
  done;
  Alcotest.(check int) "all honored" 64 (Pool.honored p)

let test_pool_classified_rejects_out_of_range () =
  match Pool.create_classified ~classify:(fun f -> f) ~frames:64 ~n_colors:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range classifier accepted"

(* ---- Hash-aware CDPC end to end ---- *)

let setup ?(l2_slices = 1) ?(l2_hash = Ahash.Identity) ~policy () =
  let cfg = Helpers.tiny_cfg ~l2_assoc:2 ~l2_slices ~l2_hash () in
  Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy

(* Under the identity hash, hash-aware CDPC must coincide with plain
   CDPC bit for bit: the classifier is frame mod n_colors. *)
let test_hcdpc_identity_coincides () =
  let cdpc = Run.run (setup ~policy:Run.cdpc ()) in
  let hcdpc = Run.run (setup ~policy:(Run.Cdpc_hash { fallback = `Page_coloring }) ()) in
  let strip r = { r with Pcolor.Stats.Report.policy = "x" } in
  Alcotest.(check string) "identical reports"
    (Json.to_string (Pcolor.Stats.Report.to_json (strip cdpc.Run.report)))
    (Json.to_string (Pcolor.Stats.Report.to_json (strip hcdpc.Run.report)))

let test_hcdpc_names_inversion () =
  let o = Run.run (setup ~l2_slices:2 ~l2_hash:Ahash.Sandybridge ~policy:(Run.Cdpc_hash { fallback = `Page_coloring }) ()) in
  (match o.Run.hash_inversion with
  | Some n -> Alcotest.(check string) "inversion name" "hash-inverse(sandybridge)" n
  | None -> Alcotest.fail "no inversion recorded");
  let art = Json.to_string (Run.artifact_json o) in
  Alcotest.(check bool) "chosen_by suffixed" true (contains art "+hash-inverse(sandybridge)")

(* Under a real (sandybridge) hash the hash-aware kernel grants frames
   whose *true bin* matches the hint; the plain kernel's believed
   colors scatter across bins. *)
let test_hcdpc_grants_true_bins () =
  let l2_slices = 2 and l2_hash = Ahash.Sandybridge in
  let o = Run.run (setup ~l2_slices ~l2_hash ~policy:(Run.Cdpc_hash { fallback = `Page_coloring }) ()) in
  let cfg = o.Run.cfg in
  let hash = Config.resolved_hash cfg in
  let pool = Pcolor.Vm.Kernel.pool o.Run.kernel in
  (* the classified pool reports bins: color_of = bin_of *)
  for frame = 0 to 255 do
    Alcotest.(check int)
      (Printf.sprintf "frame %d bin" frame)
      (Ahash.bin_of hash frame)
      (Pcolor.Vm.Frame_pool.color_of pool frame)
  done

let suite =
  [
    ( "hash.ahash",
      [
        Alcotest.test_case "identity bin = frame mod n_colors" `Quick test_identity_is_mod;
        Alcotest.test_case "spec strings round-trip" `Quick test_spec_strings;
        Alcotest.test_case "GF(2) rank" `Quick test_rank;
        Alcotest.test_case "canonical RREF" `Quick test_canonical;
        Alcotest.test_case "resolve rejects bad matrices" `Quick test_resolve_rejects;
        Alcotest.test_case "presets full rank, slices reachable" `Quick test_presets_full_rank;
        QCheck_alcotest.to_alcotest qcheck_slice_of_reference;
      ] );
    ( "hash.slice",
      [
        Alcotest.test_case "1 slice identical to plain cache" `Quick test_one_slice_identity;
        Alcotest.test_case "multi-slice routing follows hash" `Quick test_multi_slice_routing;
        Alcotest.test_case "conflicts follow true bins" `Quick test_slice_conflicts_follow_bins;
        QCheck_alcotest.to_alcotest qcheck_route_page_granular;
        QCheck_alcotest.to_alcotest qcheck_route_memo_aliasing;
        Alcotest.test_case "invalidate_frame_everywhere drops only its frame" `Quick
          test_invalidate_frame_everywhere;
      ] );
    ( "hash.probe",
      [
        Alcotest.test_case "identity: one slice, empty matrix" `Quick test_probe_identity;
        Alcotest.test_case "recovers presets exactly" `Quick test_probe_recovers_presets;
        Alcotest.test_case "renders recovered matrix" `Quick test_probe_render;
        QCheck_alcotest.to_alcotest qcheck_probe_random_masks;
      ] );
    ( "hash.pool",
      [
        Alcotest.test_case "classified identity ≡ plain" `Quick test_pool_classified_identity_equiv;
        Alcotest.test_case "allocations honor true bins" `Quick test_pool_classified_bins;
        Alcotest.test_case "out-of-range classifier rejected" `Quick
          test_pool_classified_rejects_out_of_range;
      ] );
    ( "hash.cdpc",
      [
        Alcotest.test_case "identity hash-aware ≡ plain CDPC" `Quick test_hcdpc_identity_coincides;
        Alcotest.test_case "decision log names the inversion" `Quick test_hcdpc_names_inversion;
        Alcotest.test_case "pool reports true bins" `Quick test_hcdpc_grants_true_bins;
      ] );
  ]
