(* The reference-batch pipeline (Producer): a helper domain fills a
   nest's batches while the machine consumes them, or the consumer
   fills each batch itself.  Which of the two ran must never show:

   1. random programs give the same artifact and the same tape bytes on
      the main domain (where a spare core lets the helper fill) and
      inside a two-domain Pool.run_all (where the consumer fills);
   2. a run that runs out of frames in the middle of a nest leaves the
      producer ready: the next run on the same domain finishes and its
      artifact equals the one a run before the failure produced;
   3. a helper that retired while idle is replaced by the next run. *)

module Run = Pcolor.Runtime.Run
module Btrace = Pcolor.Runtime.Btrace
module Json = Pcolor.Obs.Json
module Pool = Pcolor.Util.Pool
module Kernel = Pcolor.Vm.Kernel

let artifact (o : Run.outcome) = Json.to_string (Run.artifact_json o)

(* One run, recorded: its artifact and its tape's bytes. *)
let recorded (s : Run.setup) =
  let path = Filename.temp_file "pcolor_pipeline" ".pcbt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let o =
        Out_channel.with_open_bin path (fun oc ->
            let w =
              Btrace.create_writer oc
                {
                  Btrace.bench = "rand";
                  machine = "tiny";
                  n_cpus = s.cfg.n_cpus;
                  scale = 1;
                  policy = Run.policy_name s.policy;
                  prefetch = s.prefetch;
                  seed = s.seed;
                  cap = s.cap;
                  provenance = "test";
                }
            in
            let o = Run.run ~recorder:(Btrace.recorder w) s in
            Btrace.finish w;
            o)
      in
      (artifact o, In_channel.with_open_bin path In_channel.input_all))

let policies =
  [|
    Run.Page_coloring;
    Run.Bin_hopping;
    Run.Cdpc { fallback = `Page_coloring; via_touch = false };
    Run.Cdpc { fallback = `Page_coloring; via_touch = true };
  |]

let arbitrary_case =
  QCheck.make
    ~print:(fun (spec, n_cpus, p, prefetch) ->
      Printf.sprintf "%s cpus=%d policy=%s prefetch=%b"
        (Test_random_programs.print_spec spec)
        n_cpus
        (Run.policy_name policies.(p))
        prefetch)
    QCheck.Gen.(
      quad
        (QCheck.gen Test_random_programs.arbitrary_refless_spec)
        (int_range 1 4)
        (int_bound (Array.length policies - 1))
        bool)

let prop_helper_matches_inline =
  QCheck.Test.make ~name:"helper fill and inline fill: same artifact, same tape" ~count:25
    arbitrary_case
    (fun (spec, n_cpus, p, prefetch) ->
      let setup () =
        {
          (Run.default_setup
             ~cfg:(Helpers.tiny_cfg ~n_cpus ())
             ~make_program:(fun () -> Test_random_programs.build spec)
             ~policy:policies.(p))
          with
          prefetch;
          cap = 1;
        }
      in
      let on_main = recorded (setup ()) in
      (* two tasks on two domains: whichever runs on the main domain
         runs inside a multi-domain run_all, the other on a worker
         domain — both fill their own batches *)
      let slots = Array.make 2 None in
      Pool.run_all ~jobs:2 (List.init 2 (fun i () -> slots.(i) <- Some (recorded (setup ()))));
      Array.for_all (fun r -> r = Some on_main) slots)

(* Two arrays of 64 pages each over a tiny machine's 1 KB pages: every
   CPU share of the sweep spans several batches. *)
let big_setup ?mem_frames () =
  {
    (Run.default_setup
       ~cfg:(Helpers.tiny_cfg ~n_cpus:2 ())
       ~make_program:(fun () -> Helpers.figure4_program ~rows:64 ~cols:1024 ())
       ~policy:Run.Page_coloring)
    with
    mem_frames;
    cap = 1;
  }

let test_out_of_frames_mid_nest () =
  let fresh = Run.run (big_setup ()) in
  let reference = artifact fresh in
  let faults = Kernel.faults fresh.Run.kernel in
  (* too few frames for the first share, and one frame short of the
     whole run: the fault that raises comes early in the first nest and
     late in the last *)
  List.iter
    (fun frames ->
      let raised =
        match Run.run (big_setup ~mem_frames:frames ()) with
        | _ -> false
        | exception Kernel.Out_of_frames _ -> true
      in
      Alcotest.(check bool) (Printf.sprintf "%d frames: out of frames" frames) true raised;
      Alcotest.(check string)
        (Printf.sprintf "after %d frames: artifact of a fresh run" frames)
        reference
        (artifact (Run.run (big_setup ()))))
    [ 16; faults - 1 ]

(* A helper left idle for [Producer]'s idle limit (one second) retires;
   the next run spawns a new one and must produce the same artifact. *)
let test_helper_respawn () =
  let first = artifact (Run.run (big_setup ())) in
  Unix.sleepf 1.5;
  Alcotest.(check string) "after an idle spell" first (artifact (Run.run (big_setup ())))

let suite =
  [
    Helpers.qsuite "pipeline:props" [ prop_helper_matches_inline ];
    ( "pipeline",
      [
        Alcotest.test_case "out of frames mid-nest, then a clean run" `Quick test_out_of_frames_mid_nest;
        Alcotest.test_case "a retired helper is replaced" `Quick test_helper_respawn;
      ] );
  ]
