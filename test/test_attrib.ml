(* The conflict-attribution engine and its consumers:

   1. Attrib unit behavior (recording, ordering, reset, table growth);
   2. the reconciliation invariant: attribution per-class totals equal
      the machine's Mclass counters in the metrics registry AND the
      report's weighted totals (weights pinned to 1 via cap >=
      occurrences);
   3. artifact round-trip: a schema-v2 artifact with attribution and
      decision-log sections survives Json.parse and re-serializes
      byte-identically;
   4. golden text for `pcolor explain` and `pcolor diff` rendering on a
      hand-written synthetic artifact;
   5. Delta direction rules and regression flagging. *)

module A = Pcolor.Obs.Attrib
module Json = Pcolor.Obs.Json
module Ctx = Pcolor.Obs.Ctx
module Metrics = Pcolor.Obs.Metrics
module Run = Pcolor.Runtime.Run
module Mclass = Pcolor.Memsim.Mclass
module Config = Pcolor.Memsim.Config
module Delta = Pcolor.Stats.Delta
module Explain = Pcolor.Stats.Explain

let n_classes = List.length Mclass.all

(* ---- 1. unit behavior ---- *)

let test_attrib_basic () =
  let a = A.create ~n_colors:4 ~n_classes () in
  let conflict = Mclass.index Mclass.Conflict in
  let cold = Mclass.index Mclass.Cold in
  (* two conflict misses frame 9 evicting/evicted-by frame 17, set 5 *)
  A.record a ~cls:conflict ~frame:9 ~set:5 ~victim_frame:17 ~replacement:true;
  A.record a ~cls:conflict ~frame:9 ~set:5 ~victim_frame:17 ~replacement:true;
  (* a cold miss fills an empty way: no victim, not a replacement *)
  A.record a ~cls:cold ~frame:2 ~set:1 ~victim_frame:(-1) ~replacement:false;
  Alcotest.(check int) "total" 3 (A.total a);
  Alcotest.(check int) "conflict count" 2 (A.totals_by_class a).(conflict);
  Alcotest.(check int) "cold count" 1 (A.totals_by_class a).(cold);
  Alcotest.(check (list (triple int int int))) "pairs" [ (17, 9, 2) ] (A.pairs a);
  Alcotest.(check int) "distinct pairs" 1 (A.distinct_pairs a);
  Alcotest.(check (list (pair int int))) "sets" [ (5, 2) ] (A.sets a);
  (* frame 9 is color 1 on a 4-color machine *)
  Alcotest.(check int) "color 1 conflict" 2 (A.color_counts a ~color:1).(conflict);
  Alcotest.(check int) "color 2 cold" 1 (A.color_counts a ~color:2).(cold);
  (match A.frames a with
  | (frame, counts) :: _ ->
    Alcotest.(check int) "hottest frame is 9" 9 frame;
    Alcotest.(check int) "hottest frame per-class" 2 counts.(conflict)
  | [] -> Alcotest.fail "no frames");
  A.reset a;
  Alcotest.(check int) "reset total" 0 (A.total a);
  Alcotest.(check (list (triple int int int))) "reset pairs" [] (A.pairs a)

let test_attrib_growth () =
  (* force several open-addressing grow/rehash cycles *)
  let a = A.create ~n_colors:8 ~n_classes () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    A.record a ~cls:1 ~frame:i ~set:(i land 1023) ~victim_frame:(i + n) ~replacement:true
  done;
  Alcotest.(check int) "total" n (A.total a);
  Alcotest.(check int) "distinct pairs" n (A.distinct_pairs a);
  Alcotest.(check int) "distinct frames" n (List.length (A.frames a));
  Alcotest.(check int) "sets" 1024 (List.length (A.sets a));
  (* determinism of the fold-derived orderings *)
  Alcotest.(check bool) "pairs stable" true (A.pairs a = A.pairs a)

(* ---- 2. reconciliation invariant ---- *)

let run_with_attrib ?(policy = Run.cdpc) () =
  let cfg = Helpers.tiny_cfg () in
  let attrib = A.create ~n_colors:(Config.n_colors cfg) ~n_classes () in
  let reg = Metrics.create () in
  let setup =
    {
      (Run.default_setup ~cfg
         ~make_program:(fun () -> Helpers.figure4_program ())
         ~policy)
      with
      (* cap >= every steady-state occurrence count pins the window
         weights to 1, so the report's weighted totals are raw counts *)
      cap = 4;
      check_bounds = true;
      obs = Ctx.create ~metrics:reg ~attrib ();
    }
  in
  (Run.run setup, attrib)

let test_reconcile () =
  let o, attrib = run_with_attrib () in
  let totals = A.totals_by_class attrib in
  Alcotest.(check bool) "misses were recorded" true (A.total attrib > 0);
  let snap = Option.get o.Run.metrics in
  List.iter
    (fun cls ->
      let name = "memsim.l2_miss." ^ Mclass.to_string cls in
      let registry =
        match List.assoc_opt name snap with
        | Some (Metrics.Counter n) -> n
        | _ -> Alcotest.fail ("missing counter " ^ name)
      in
      Alcotest.(check int)
        ("attribution = registry for " ^ name)
        registry
        totals.(Mclass.index cls);
      Alcotest.(check (float 1e-9))
        ("attribution = report for " ^ name)
        o.Run.report.l2_misses_by_class.(Mclass.index cls)
        (float_of_int totals.(Mclass.index cls)))
    Mclass.all;
  (* every replacement miss lands in exactly one cache-set bucket; pair
     counts can be lower (cold-start evictions of empty ways) *)
  let repl =
    totals.(Mclass.index Mclass.Capacity) + totals.(Mclass.index Mclass.Conflict)
  in
  Alcotest.(check int) "set buckets sum to replacement misses" repl
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (A.sets attrib));
  Alcotest.(check bool) "pair counts bounded by replacement misses" true
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 (A.pairs attrib) <= repl);
  (* per-color histograms partition the per-class totals *)
  let colors = List.init (A.n_colors attrib) (fun c -> A.color_counts attrib ~color:c) in
  List.iter
    (fun cls ->
      let i = Mclass.index cls in
      Alcotest.(check int)
        ("colors partition " ^ Mclass.to_string cls)
        totals.(i)
        (List.fold_left (fun acc per -> acc + per.(i)) 0 colors))
    Mclass.all

(* ---- 3. artifact round-trip ---- *)

let test_artifact_roundtrip () =
  let o, attrib = run_with_attrib () in
  let provenance =
    Pcolor.Obs.Provenance.collect ~scale:64 ~jobs:1 ~seed:42
      ~config_hash:(Pcolor.Obs.Provenance.hash_value "cfg") ()
  in
  let artifact = Run.artifact_json ~provenance o in
  let s = Json.to_string artifact in
  let parsed =
    match Json.parse s with Ok v -> v | Error e -> Alcotest.fail ("artifact parse: " ^ e)
  in
  Alcotest.(check string) "re-serialization is byte-identical" s (Json.to_string parsed);
  Alcotest.(check (option int))
    "schema version" (Some Pcolor.Obs.Provenance.schema_version)
    (Option.bind (Json.member "schema_version" parsed) Json.to_int_opt);
  let att = Option.get (Json.member "attribution" parsed) in
  Alcotest.(check (option int))
    "attribution totals survive the round trip"
    (Some (A.total attrib))
    (Option.bind (Json.member "total_misses" att) Json.to_int_opt);
  let dec = Option.get (Json.member "coloring_decisions" parsed) in
  (match Json.member "segments" dec with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "decision log has no segments");
  (match Json.member "pages" dec with
  | Some (Json.Arr (first :: _)) ->
    Alcotest.(check bool)
      "every page decision names its step" true
      (Option.is_some (Json.member "chosen_by" first))
  | _ -> Alcotest.fail "decision log has no per-page entries");
  (* the explain renderer accepts the real artifact *)
  let contains needle hay =
    let nl = String.length needle in
    let rec go i = i + nl <= String.length hay && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let text = Explain.render parsed in
  Alcotest.(check bool) "explain renders attribution" true
    (contains "conflict attribution" text)

(* ---- 4. golden explain/diff text ---- *)

(* A hand-written artifact exercising every explain section with tiny,
   stable numbers: the rendered text is pinned byte-for-byte. *)
let synthetic_artifact =
  {|{"schema_version":2,
 "provenance":{"git":"deadbeef"},
 "report":{"benchmark":"toy","machine":"tiny","policy":"cdpc","n_cpus":2,
           "wall_cycles":1000.0,"mcpi":2.5,"refs_per_sec":100.0},
 "attribution":{
   "total_misses":10,
   "by_class":{"cold":2,"capacity":3,"conflict":5,"true-sharing":0,"false-sharing":0},
   "distinct_pairs":2,"pairs_cap":64,
   "top_pairs":[
     {"count":4,"victim_frame":9,"victim_color":1,"victim_vpage":3,"victim_array":"A",
      "evictor_frame":17,"evictor_color":1,"evictor_vpage":7,"evictor_array":"B"},
     {"count":1,"victim_frame":2,"victim_color":2,"evictor_frame":10,"evictor_color":2}],
   "distinct_frames":2,"frames_cap":64,
   "top_frames":[
     {"frame":9,"color":1,"vpage":3,"array":"A","misses":6,
      "by_class":{"cold":1,"capacity":2,"conflict":3,"true-sharing":0,"false-sharing":0}},
     {"frame":17,"color":1,"vpage":7,"array":"B","misses":4,
      "by_class":{"cold":1,"capacity":1,"conflict":2,"true-sharing":0,"false-sharing":0}}],
   "distinct_sets":1,"sets_cap":64,
   "top_sets":[{"set":5,"misses":8}],
   "colors":[
     {"color":0,"by_class":{"cold":0,"capacity":0,"conflict":0,"true-sharing":0,"false-sharing":0}},
     {"color":1,"by_class":{"cold":2,"capacity":3,"conflict":5,"true-sharing":0,"false-sharing":0}}]},
 "coloring_decisions":{
   "ablation":{"set_ordering":true,"segment_ordering":true,"rotation":false},
   "n_colors":4,"page_size":1024,"total_pages":6,
   "set_order":[1,2],
   "excluded":["SCRATCH"],
   "segments":[
     {"array":"A","cpus_mask":1,"first_page":0,"n_pages":3,"pos":0,"rotation":0,"set_rank":0,"seg_rank":0},
     {"array":"B","cpus_mask":2,"first_page":8,"n_pages":3,"pos":3,"rotation":0,"set_rank":1,"seg_rank":0}],
   "pages_cap":4096,
   "pages":[
     {"vpage":0,"array":"A","position":0,"color":0,"chosen_by":"step5-round-robin"},
     {"vpage":1,"array":"A","position":1,"color":1,"chosen_by":"step5-round-robin"}]}}|}

let parse_exn s = match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e

let test_explain_golden () =
  let text = Explain.render (parse_exn synthetic_artifact) in
  let expected =
    {|run: toy on tiny, policy cdpc, 2 cpu(s)
artifact schema v2, git deadbeef

== conflict attribution ==
external-cache misses: 10
  cold           2
  capacity       3
  conflict       5
  true-sharing   0
  false-sharing  0

top eviction pairs (2 shown of 2 distinct):
       4  frame 9 (color 1, A vpage 3) evicted by frame 17 (color 1, B vpage 7)
       1  frame 2 (color 2, unmapped) evicted by frame 10 (color 2, unmapped)

per-array miss classes (from the 2 hottest frames; .=cold a=capacity x=conflict t=true-sharing f=false-sharing):
  A            |.......aaaaaaaaaaaaaxxxxxxxxxxxxxxxxxxxx| 6
  B            |.......aaaaaaxxxxxxxxxxxxxx             | 4

color occupancy (2 colors, shade = misses, max 10):
  | @|
  color  1     10 |##############################|

hottest cache sets:
  set     5  8 replacement misses

== coloring decisions (§5.2) ==
steps: set_ordering on, segment_ordering on, rotation OFF
6 pages over 4 colors
step-2 set order: 0x1 0x2
excluded arrays: SCRATCH
segments (placement order; set_rank = step 2, seg_rank = step 3):
  A            pages     0+3    pos     0 rot   0 set_rank  0 seg_rank  0 cpus 0x1
  B            pages     8+3    pos     3 rot   0 set_rank  1 seg_rank  0 cpus 0x2
per-page colors (first 2 of 2):
  vpage     0  A            pos     0 -> color  0  (step5-round-robin)
  vpage     1  A            pos     1 -> color  1  (step5-round-robin)
|}
  in
  Alcotest.(check string) "explain text pinned" expected text

let synthetic_base = {|{"schema_version":2,"report":{"benchmark":"toy","policy":"cdpc",
  "wall_cycles":1000.0,"mcpi":2.0,"refs_per_sec":100.0,
  "l2_misses_by_class":{"conflict":50.0,"capacity":100.0}},"extra":{"hints_honored":10}}|}

let synthetic_regressed = {|{"schema_version":2,"report":{"benchmark":"toy","policy":"cdpc",
  "wall_cycles":1200.0,"mcpi":2.0,"refs_per_sec":80.0,
  "l2_misses_by_class":{"conflict":75.0,"capacity":99.0}},"extra":{"hints_honored":10}}|}

let test_diff_golden () =
  let d = Delta.diff ~threshold:0.05 (parse_exn synthetic_base) (parse_exn synthetic_regressed) in
  let expected =
    {|path                                                    old            new        rel
!! report.l2_misses_by_class.conflict                    50             75     50.00%
!! report.wall_cycles                                  1000           1200     20.00%
!! report.refs_per_sec                                  100             80     20.00%
 + report.l2_misses_by_class.capacity                   100             99      1.00%
|}
  in
  Alcotest.(check string) "diff text pinned" expected (Delta.render d);
  Alcotest.(check int) "three regressions" 3 (List.length (Delta.regressions d))

(* ---- 5. delta semantics ---- *)

let test_delta_directions () =
  let check_dir name expected =
    Alcotest.(check bool) name true (Delta.direction_of name = expected)
  in
  check_dir "report.wall_cycles" Delta.Increase_bad;
  check_dir "report.l2_misses_by_class.conflict" Delta.Increase_bad;
  check_dir "sweep.par_refs_per_sec" Delta.Decrease_bad;
  check_dir "sweep.speedup" Delta.Decrease_bad;
  check_dir "report.hints_honored" Delta.Decrease_bad;
  check_dir "report.benchmark_id" Delta.Neutral

let test_delta_no_self_regression () =
  let a = parse_exn synthetic_base in
  let d = Delta.diff ~threshold:0.0 a a in
  Alcotest.(check int) "self diff is clean" 0 (List.length (Delta.changed d));
  Alcotest.(check int) "no self regressions" 0 (List.length (Delta.regressions d))

let test_delta_improvement_not_flagged () =
  (* regressed -> base is an improvement: same paths move, none flagged *)
  let d =
    Delta.diff ~threshold:0.05 (parse_exn synthetic_regressed) (parse_exn synthetic_base)
  in
  Alcotest.(check bool) "changes detected" true (Delta.changed d <> []);
  Alcotest.(check int) "improvements are not regressions" 0
    (List.length (Delta.regressions d))

let test_delta_threshold () =
  (* 25% conflict growth: flagged at 5%, tolerated at 50% *)
  let a = parse_exn synthetic_base and b = parse_exn synthetic_regressed in
  let tight = Delta.diff ~threshold:0.05 a b in
  let loose = Delta.diff ~threshold:0.5 a b in
  Alcotest.(check bool) "tight threshold flags" true (Delta.regressions tight <> []);
  Alcotest.(check int) "loose threshold tolerates" 0 (List.length (Delta.regressions loose))

let suite =
  [
    ( "attrib.engine",
      [
        Alcotest.test_case "record/query/reset" `Quick test_attrib_basic;
        Alcotest.test_case "table growth to 10k pairs" `Quick test_attrib_growth;
      ] );
    ( "attrib.reconcile",
      [
        Alcotest.test_case "totals = registry = report; partitions exact" `Quick test_reconcile;
      ] );
    ( "attrib.artifact",
      [ Alcotest.test_case "schema-v2 round trip through Json.parse" `Quick test_artifact_roundtrip ] );
    ( "attrib.golden",
      [
        Alcotest.test_case "explain text pinned" `Quick test_explain_golden;
        Alcotest.test_case "diff text pinned" `Quick test_diff_golden;
      ] );
    ( "attrib.delta",
      [
        Alcotest.test_case "direction rules" `Quick test_delta_directions;
        Alcotest.test_case "self diff clean" `Quick test_delta_no_self_regression;
        Alcotest.test_case "improvements not flagged" `Quick test_delta_improvement_not_flagged;
        Alcotest.test_case "threshold gates flagging" `Quick test_delta_threshold;
      ] );
  ]
