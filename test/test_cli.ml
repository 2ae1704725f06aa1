(* Command-line robustness: a bad flag value must end in one stderr line
   naming the flag and exit 2 — the convention `--slices 3` set — never
   in an uncaught exception (exit 125 and a backtrace). *)

let tape = Filename.concat (Filename.get_temp_dir_name ()) "pcolor_cli_rejected.pcbt"

(* [rejects ~flag args] runs the CLI on [args] and expects the refusal;
   [~no_file] must not exist afterwards (a refused command writes
   nothing). *)
let rejects ~flag ?no_file args () =
  let label = String.concat " " args in
  Option.iter (fun f -> if Sys.file_exists f then Sys.remove f) no_file;
  let code, stderr = Helpers.run_cli args in
  Alcotest.(check int) (label ^ ": exit code") 2 code;
  (match String.split_on_char '\n' stderr with
  | [ line; "" ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names %s" label line flag)
      true
      (String.starts_with ~prefix:(flag ^ ": ") line)
  | _ -> Alcotest.failf "%s: expected one stderr line, got %S" label stderr);
  Option.iter
    (fun f -> Alcotest.(check bool) (label ^ ": nothing written") false (Sys.file_exists f))
    no_file

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* The removed batch engine is an unknown [--engine] value: a usage
   error listing the engines that exist, not an exception. *)
let test_engine_batch_refused () =
  let code, stderr = Helpers.run_cli [ "run"; "tomcatv"; "-s"; "64"; "--engine=batch" ] in
  Alcotest.(check bool) (Printf.sprintf "non-zero exit (%d)" code) true (code <> 0);
  Alcotest.(check bool) "not an uncaught exception" true (code <> 125);
  List.iter
    (fun engine ->
      Alcotest.(check bool) ("names " ^ engine) true (contains stderr ("'" ^ engine ^ "'")))
    [ "runs"; "interp" ];
  Alcotest.(check bool) "no backtrace" false
    (contains stderr "Raised at" || contains stderr "Fatal error" || contains stderr "exception")

let suite =
  [
    ( "cli.rejects",
      [
        Alcotest.test_case "run --scale 32" `Quick
          (rejects ~flag:"--scale" [ "run"; "tomcatv"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "compare --scale 32" `Quick
          (rejects ~flag:"--scale" [ "compare"; "tomcatv"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "mix --scale 32" `Quick
          (rejects ~flag:"--scale" [ "mix"; "tomcatv"; "swim"; "--scale"; "32"; "-p"; "4" ]);
        Alcotest.test_case "record --scale 32" `Quick
          (rejects ~flag:"--scale" ~no_file:tape
             [ "record"; "tomcatv"; "--scale"; "32"; "-o"; tape ]);
        Alcotest.test_case "run --cpus 0" `Quick
          (rejects ~flag:"--cpus" [ "run"; "swim"; "-s"; "64"; "--cpus"; "0" ]);
        Alcotest.test_case "mix --cpus 0" `Quick
          (rejects ~flag:"--cpus" [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "--cpus"; "0" ]);
        Alcotest.test_case "mix --mem-frames 0" `Quick
          (rejects ~flag:"--mem-frames"
             [ "mix"; "tomcatv"; "swim"; "-s"; "64"; "-p"; "4"; "--mem-frames"; "0" ]);
        Alcotest.test_case "run unknown bench" `Quick
          (rejects ~flag:"Spec.find" [ "run"; "tomcatX"; "-s"; "64" ]);
        Alcotest.test_case "compare unknown bench" `Quick
          (rejects ~flag:"Spec.find" [ "compare"; "tomcatX"; "-s"; "64"; "-p"; "2" ]);
        (* the convention the cases above follow *)
        Alcotest.test_case "run --slices 3" `Quick
          (rejects ~flag:"--slices/--llc-hash"
             [ "run"; "tomcatv"; "-s"; "64"; "--slices"; "3" ]);
        Alcotest.test_case "run --engine=batch" `Quick test_engine_batch_refused;
      ] );
  ]
