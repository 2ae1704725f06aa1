(* Self-test of the host-performance benchmark.  Every workload runs at
   smoke size (a few experiments, one pass), untraced and traced; each
   result line must parse, check out correct with no failures, and
   carry exactly the metrics BENCHMARK.json declares for that mode, each
   with its declared unit.  The untraced run's simulated totals must
   equal the sums of the expected outputs, and a tampered expectation
   must be counted as a failure without aborting the run. *)

open Perfbench
module Json = Pcolor.Obs.Json

let failures = ref 0

let expect cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let member k v = Option.get (Json.member k v)

let float_of v = Option.get (Json.to_float_opt v)

let str v = Option.get (Json.to_string_opt v)

let declared =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Result.get_ok (Json.parse text)

(* name -> unit of one section of BENCHMARK.json *)
let section name =
  match member name declared with
  | Json.Arr xs -> List.map (fun m -> (str (member "name" m), str (member "unit" m))) xs
  | _ -> failwith ("BENCHMARK.json: " ^ name ^ " is not a list")

let expected = Expected.load "../expected.txt"

let run ?(expected = expected) ~workload ~seed ~trace () =
  let o =
    Driver.run ~expected ~workload ~seed ~seconds:0.0 ~trace ~smoke:true ~scratch:"tapes"
  in
  (o, Result.get_ok (Json.parse (Driver.to_line o)))

let check_line ~label ~sections line =
  let keys = match line with Json.Obj kv -> List.map fst kv | _ -> [] in
  expect (keys = [ "correct"; "attempted"; "failed"; "metrics" ]) "%s: result keys" label;
  expect (member "correct" line = Json.Bool true) "%s: correct" label;
  expect (member "failed" line = Json.Int 0) "%s: no failures" label;
  expect (float_of (member "attempted" line) >= 1.0) "%s: attempted" label;
  let metrics = match member "metrics" line with Json.Obj kv -> kv | _ -> [] in
  let declared = List.concat_map section sections in
  expect (List.length metrics = List.length declared) "%s: %d metrics printed, %d declared" label
    (List.length metrics) (List.length declared);
  List.iter
    (fun (name, unit_) ->
      match List.assoc_opt name metrics with
      | None -> expect false "%s: metric %s missing" label name
      | Some m ->
        expect (str (member "unit" m) = unit_) "%s: %s unit" label name;
        expect (Float.is_finite (float_of (member "value" m))) "%s: %s value" label name)
    declared

(* the sums of the expected outputs the seed does not move *)
let expected_sims ~workload ~seed =
  let w = Driver.make workload ~seed ~smoke:true ~scratch:"tapes" in
  Array.fold_left
    (fun (wall, conflict) (e : Driver.experiment) ->
      if Expected.seed_free expected ~workload ~id:e.Driver.id then
        let x = Option.get (Expected.expect expected ~workload ~seed ~id:e.Driver.id) in
        (wall +. x.Expected.wall_cycles, conflict +. x.Expected.conflict)
      else (wall, conflict))
    (0.0, 0.0) w.Driver.experiments

let metric line name = float_of (member "value" (member name (member "metrics" line)))

let () =
  Driver.verbose := false;
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          let label = Printf.sprintf "%s seed %d" workload seed in
          let _, line = run ~workload ~seed ~trace:false () in
          check_line ~label ~sections:[ "end_to_end" ] line;
          let wall, conflict = expected_sims ~workload ~seed in
          expect (metric line "sim_gcycles" = wall /. 1e9) "%s: sim_gcycles" label;
          expect (metric line "sim_conflict_misses" = conflict) "%s: sim_conflict_misses" label)
        [ Expected.default_seed; Expected.heldout_seed ];
      let _, line = run ~workload ~seed:Expected.default_seed ~trace:true () in
      check_line ~label:(workload ^ " traced") ~sections:[ "per_layer" ] line)
    Driver.workload_names;
  (* a wrong expectation is a counted failure, not an abort *)
  let tampered = Hashtbl.copy expected in
  let w = Driver.make "sweep" ~seed:Expected.default_seed ~smoke:true ~scratch:"tapes" in
  let id = w.Driver.experiments.(0).Driver.id in
  let key = ("sweep", Expected.default_seed, id) in
  Hashtbl.replace tampered key { (Hashtbl.find expected key) with Expected.digest = "0" };
  let o, _ = run ~expected:tampered ~workload:"sweep" ~seed:Expected.default_seed ~trace:false () in
  expect (o.Driver.failed = 1 && not o.Driver.correct) "tampered digest: %d failed" o.Driver.failed;
  expect (o.Driver.attempted = Array.length w.Driver.experiments) "tampered digest: run completed";
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-test: ok"
