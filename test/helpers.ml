(* Shared fixtures for the test suites: tiny machine configurations and
   toy programs that keep individual tests fast and geometry easy to
   reason about. *)

module Config = Pcolor.Memsim.Config
module Ir = Pcolor.Comp.Ir

(* A miniature machine: 8 KB direct-mapped external cache, 1 KB pages,
   128 B lines -> 8 colors; 512 B 2-way on-chip cache; small TLB. *)
let tiny_cfg ?(n_cpus = 2) ?(l2_assoc = 1) ?(l2_slices = 1) ?(l2_hash = Pcolor.Memsim.Ahash.Identity)
    () =
  Config.validate
    {
      Config.name = "tiny";
      n_cpus;
      clock_mhz = 400;
      page_size = 1024;
      l1 = { size = 512; assoc = 2; line = 32 };
      l2 = { size = 8192; assoc = l2_assoc; line = 128 };
      tlb_entries = 8;
      l2_hit_cycles = 10;
      mem_cycles = 100;
      remote_cycles = 150;
      tlb_miss_cycles = 20;
      page_fault_cycles = 500;
      bus_bytes_per_cycle = 4.0;
      upgrade_bus_cycles = 4;
      max_outstanding_prefetches = 4;
      l2_slices;
      l2_hash;
    }

(* Figure 4's shape: two arrays partitioned across two CPUs. *)
let figure4_program ?(rows = 8) ?(cols = 128) () =
  let c = Pcolor.Workloads.Gen.ctx () in
  let a = Pcolor.Workloads.Gen.arr2 c "A" ~rows ~cols in
  let b = Pcolor.Workloads.Gen.arr2 c "B" ~rows ~cols in
  let nest =
    Ir.make_nest ~label:"fig4.sweep" ~kind:Pcolor.Workloads.Gen.parallel_even
      ~bounds:[| rows; cols |]
      ~refs:[ Pcolor.Workloads.Gen.full2 a ~write:false; Pcolor.Workloads.Gen.full2 b ~write:true ]
      ~body_instr:4 ()
  in
  Pcolor.Workloads.Gen.program c ~name:"fig4"
    ~phases:[ { Ir.pname = "sweep"; nests = [ nest ] } ]
    ~steady:[ (0, 4) ] ~startup:100 ()

(* Layout a program's arrays for tests that need concrete addresses. *)
let layout ?(mode = Pcolor.Cdpc.Align.Aligned) cfg (p : Ir.program) =
  let summary = Pcolor.Comp.Summary.extract ~page_size:cfg.Config.page_size p in
  ignore (Pcolor.Cdpc.Align.layout ~cfg ~mode ~groups:summary.groups p.arrays);
  summary

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* [build_file parts] is a file the test stanza depends on, by its path
   from the build tree's root, found from the test binary's directory so
   the suite passes whatever the working directory. *)
let build_file parts =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.parent_dir_name :: parts)

let cli = build_file [ "bin"; "pcolor_cli.exe" ]

(* [run_cli ?stdin args] runs the CLI with stdout discarded and stdin
   read from the file [stdin], returning its exit code and everything it
   wrote to stderr. *)
let run_cli ?stdin args =
  let err = Filename.temp_file "pcolor_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command cli args ?stdin ~stdout:Filename.null ~stderr:err)
      in
      let ic = open_in_bin err in
      let stderr = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, stderr))
