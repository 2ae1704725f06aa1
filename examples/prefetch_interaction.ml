(* CDPC x prefetching interaction (Section 6.2): reproduce the paper's
   tomcatv observation that the two techniques are complementary —
   "taken individually, CDPC and prefetching each accelerate
   performance by 29% and 24%, respectively — when combined, however,
   they yield a total speedup of 88%" (tomcatv, 4 CPUs).

   Run with:  dune exec examples/prefetch_interaction.exe [-- scale cpus] *)

module Run = Pcolor.Runtime.Run
module Cell = Pcolor.Runtime.Cell
module Report = Pcolor.Stats.Report

let () =
  let scale = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 4 in
  let n_cpus = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 8 in
  let machine = Result.get_ok (Cell.machine ~model:"sgi" ~n_cpus ~scale ()) in
  let run ~policy ~prefetch =
    (Run.run (Cell.setup (Cell.make ~prefetch ~machine ~bench:"tomcatv" ~policy ()))).report
  in
  Printf.printf "tomcatv on %s, %d CPUs (scale 1/%d)\n\n" machine.cfg.name n_cpus scale;
  let base = run ~policy:Run.Page_coloring ~prefetch:false in
  let cases =
    [
      ("page coloring (baseline)", base);
      ("cdpc alone", run ~policy:Run.cdpc ~prefetch:false);
      ("prefetch alone", run ~policy:Run.Page_coloring ~prefetch:true);
      ("cdpc + prefetch", run ~policy:Run.cdpc ~prefetch:true);
    ]
  in
  List.iter
    (fun (name, (r : Report.t)) ->
      Printf.printf "%-26s wall %.3e  MCPI %5.2f  speedup %.2fx  (pf issued %.0f, useful %.0f, dropped %.0f)\n"
        name r.wall_cycles r.mcpi (Report.speedup ~base r) r.pf_issued r.pf_useful r.pf_dropped)
    cases;
  let s_of name = Report.speedup ~base (List.assoc name cases) in
  Printf.printf
    "\ncomplementarity: combined %.2fx vs individual %.2fx / %.2fx — prefetching hides the\n\
     misses CDPC cannot remove, and CDPC keeps prefetched lines from being displaced\n\
     while freeing the bus bandwidth prefetching needs.\n"
    (s_of "cdpc + prefetch") (s_of "cdpc alone") (s_of "prefetch alone")
