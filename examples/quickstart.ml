(* Quickstart: build a small parallel stencil program, run it under the
   operating system's standard page coloring and under compiler-directed
   page coloring, and compare the memory behaviour.

   Run with:  dune exec examples/quickstart.exe *)

module Ir = Pcolor.Comp.Ir
module Gen = Pcolor.Workloads.Gen
module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report

(* A 5-point Jacobi relaxation over four equal 2-D grids — the shape
   that gets commodity OS page mapping into trouble: equal array sizes
   mean equal cache color phases. *)
let make_program () =
  let c = Gen.ctx () in
  let n = 257 in
  let grid name = Gen.arr2 c name ~rows:n ~cols:n in
  let a = grid "A" and b = grid "B" and rhs = grid "RHS" and tmp = grid "TMP" in
  let relax =
    Ir.make_nest ~label:"relax" ~kind:Gen.parallel_even
      ~bounds:[| n - 2; n - 2 |]
      ~refs:
        [
          Gen.interior2 a ~di:0 ~dj:0 ~write:false;
          Gen.interior2 a ~di:(-1) ~dj:0 ~write:false;
          Gen.interior2 a ~di:1 ~dj:0 ~write:false;
          Gen.interior2 a ~di:0 ~dj:(-1) ~write:false;
          Gen.interior2 a ~di:0 ~dj:1 ~write:false;
          Gen.interior2 rhs ~di:0 ~dj:0 ~write:false;
          Gen.interior2 b ~di:0 ~dj:0 ~write:true;
        ]
      ~body_instr:10 ()
  in
  let copy_back =
    Ir.make_nest ~label:"copy" ~kind:Gen.parallel_even
      ~bounds:[| n - 2; n - 2 |]
      ~refs:
        [
          Gen.interior2 b ~di:0 ~dj:0 ~write:false;
          Gen.interior2 tmp ~di:0 ~dj:0 ~write:true;
          Gen.interior2 a ~di:0 ~dj:0 ~write:true;
        ]
      ~body_instr:6 ()
  in
  Gen.program c ~name:"jacobi4"
    ~phases:
      [ { Ir.pname = "relax"; nests = [ relax ] }; { Ir.pname = "copy"; nests = [ copy_back ] } ]
    ~steady:[ (0, 50); (1, 50) ]
    ()

let () =
  let n_cpus = 8 in
  (* the paper's SGI-like machine, scaled 4x down together with the data *)
  let cfg = Pcolor.Memsim.Config.scale (Pcolor.Memsim.Config.sgi_base ~n_cpus ()) 4 in
  Printf.printf "machine: %s, %d CPUs, %d page colors\n\n" cfg.name n_cpus
    (Pcolor.Memsim.Config.n_colors cfg);
  let run policy =
    (Run.run (Run.default_setup ~cfg ~make_program ~policy)).report
  in
  let pc = run Run.Page_coloring in
  let cdpc = run Run.cdpc in
  List.iter
    (fun r ->
      Format.printf "%a@.@." Report.pp r)
    [ pc; cdpc ];
  Printf.printf "CDPC speedup over page coloring: %.2fx\n" (Report.speedup ~base:pc cdpc);
  Printf.printf "conflict misses: %.0f -> %.0f\n"
    (Report.conflict_misses pc) (Report.conflict_misses cdpc)
