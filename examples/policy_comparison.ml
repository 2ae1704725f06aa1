(* Policy comparison: sweep the four page-mapping policies over the
   swim kernel for 1-8 CPUs — the motivating experiment of the paper's
   introduction ("neither existing page mapping policy dominates the
   other. However, our technique consistently outperforms both").

   Run with:  dune exec examples/policy_comparison.exe [-- scale]   *)

module Run = Pcolor.Runtime.Run
module Cell = Pcolor.Runtime.Cell
module Report = Pcolor.Stats.Report
module Table = Pcolor.Util.Table

let () =
  let scale = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 16 in
  let policies = [ Run.Page_coloring; Run.Bin_hopping; Run.Random_colors; Run.cdpc ] in
  let table =
    Table.create ~title:(Printf.sprintf "swim, scale 1/%d: wall cycles (and MCPI)" scale)
      ("policy" :: List.map (fun p -> Printf.sprintf "%d cpu" p) [ 1; 2; 4; 8 ])
  in
  List.iter
    (fun policy ->
      let cells =
        List.map
          (fun n_cpus ->
            let machine = Result.get_ok (Cell.machine ~model:"sgi" ~n_cpus ~scale ()) in
            let cell = Cell.make ~machine ~bench:"swim" ~policy () in
            let r = (Run.run (Cell.setup cell)).report in
            Printf.sprintf "%.2e (%.2f)" r.wall_cycles r.mcpi)
          [ 1; 2; 4; 8 ]
      in
      Table.add_row table (Run.policy_name policy :: cells))
    policies;
  Table.print table;
  print_endline "Lower is better. CDPC should match or beat the best static policy per column.";
  print_endline "(Use scale 4 for the paper-regime geometry; it runs for a few minutes.)"
