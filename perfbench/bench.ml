(* Command-line entry point of the host-performance benchmark.

     bench.exe --workload sweep|mix|replay --seed N --seconds S --trace 0|1
     bench.exe --write-expected

   prints progress and failures on stderr and, as the last line on
   stdout, one JSON object: correct, attempted, failed and the metrics
   (end-to-end with --trace 0, per-layer with --trace 1).  Run it from
   the repository root, as perfbench/run.py does: it reads
   perfbench/expected.txt and writes replay tapes under .perfbench/. *)

open Perfbench

let expected_path = "perfbench/expected.txt"

let scratch = ".perfbench"

let () =
  let workload = ref "" and seed = ref Expected.default_seed and seconds = ref 10.0 in
  let trace = ref 0 and write = ref false in
  let usage =
    "bench.exe --workload " ^ String.concat "|" Driver.workload_names
    ^ " [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (run order, bin-hopping jitter)");
      ("--seconds", Arg.Set_float seconds, "S how long the loop measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run's per-layer metrics (1)");
      ("--write-expected", Arg.Set write, " rewrite perfbench/expected.txt and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !write then Driver.write_expected ~path:expected_path ~scratch
  else begin
    if not (List.mem !workload Driver.workload_names) || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let expected = Expected.load expected_path in
    let o =
      Driver.run ~expected ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~smoke:false ~scratch
    in
    print_endline (Driver.to_line o)
  end
