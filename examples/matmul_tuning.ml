(* Using the library on your own kernel and machine: a blocked matrix
   multiply, swept over external-cache associativity and page-mapping
   policy.  This is the "downstream user" workflow: declare arrays and
   loop nests, let the compiler analyses derive the summaries, and ask
   the runner for reports.

   Run with:  dune exec examples/matmul_tuning.exe *)

module Ir = Pcolor.Comp.Ir
module Gen = Pcolor.Workloads.Gen
module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report
module Config = Pcolor.Memsim.Config

(* C += A * B with the i-loop distributed: each CPU owns a row band of A
   and C and streams all of B.  B's pages are shared by every CPU — a
   uniform access set with the full processor set, which CDPC places
   between the private bands. *)
let make_program () =
  let c = Gen.ctx () in
  let n = 192 in
  let a = Gen.arr2 c "A" ~rows:n ~cols:n in
  let b = Gen.arr2 c "B" ~rows:n ~cols:n in
  let cm = Gen.arr2 c "C" ~rows:n ~cols:n in
  (* loop (i, k, j): C[i][j] += A[i][k] * B[k][j] *)
  let mm =
    Ir.make_nest ~label:"matmul" ~kind:Gen.parallel_even ~bounds:[| n; n; n |]
      ~refs:
        [
          Ir.ref_to a ~coeffs:[| n; 1; 0 |] ~offset:0 ~write:false;
          Ir.ref_to b ~coeffs:[| 0; n; 1 |] ~offset:0 ~write:false;
          Ir.ref_to cm ~coeffs:[| n; 0; 1 |] ~offset:0 ~write:true;
        ]
      ~body_instr:4 ()
  in
  Gen.program c ~name:"matmul"
    ~phases:[ { Ir.pname = "mm"; nests = [ mm ] } ]
    ~steady:[ (0, 4) ] ()

let () =
  let n_cpus = 8 in
  Printf.printf "blocked matmul, %d CPUs: policy x associativity sweep\n\n" n_cpus;
  let t =
    Pcolor.Util.Table.create ~title:"MCPI (conflict misses)"
      [ "policy"; "direct-mapped"; "2-way"; "4-way" ]
  in
  List.iter
    (fun (pname, policy) ->
      let cells =
        List.map
          (fun assoc ->
            let base = Config.scale (Config.sgi_base ~n_cpus ()) 16 in
            let cfg = Config.validate { base with l2 = { base.l2 with assoc } } in
            let r = (Run.run (Run.default_setup ~cfg ~make_program ~policy)).report in
            Printf.sprintf "%.2f (%.0f)" r.mcpi (Report.conflict_misses r))
          [ 1; 2; 4 ]
      in
      Pcolor.Util.Table.add_row t (pname :: cells))
    [
      ("page-coloring", Run.Page_coloring);
      ("bin-hopping", Run.Bin_hopping);
      ("cdpc", Run.cdpc);
    ];
  Pcolor.Util.Table.print t;
  print_endline "Higher associativity absorbs conflicts the mapping policy leaves behind;";
  print_endline "CDPC gets a direct-mapped cache close to the set-associative numbers."
