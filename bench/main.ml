(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation, then runs bechamel micro-benchmarks of the core
   machinery.

     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- figure6      run selected sections
     PCOLOR_SCALE=16 dune exec bench/main.exe quick geometry
     PCOLOR_FAST=1   dune exec bench/main.exe trimmed CPU sweeps
     PCOLOR_JOBS=8   dune exec bench/main.exe experiment grids on 8 domains
     PCOLOR_JOBS=1   dune exec bench/main.exe strictly sequential

   Each section's experiment cells fan out across PCOLOR_JOBS domains
   (default: the machine's recommended domain count); tables are
   rendered from the cells' reports afterwards, so stdout is
   byte-identical for any job count.

   Absolute cycle counts are per representative window on a scaled
   machine (see DESIGN.md); the shapes — who wins, by what factor, where
   the crossovers sit — are the reproduction targets, and each section
   prints explicit shape checks against the paper's claims. *)

let sections =
  [
    ("table1", Figures.table1);
    ("figure2", Figures.figure2);
    ("figure3+5", Figures.access_patterns);
    ("figure6", Figures.figure6);
    ("figure7", Figures.figure7);
    ("figure8", Figures.figure8);
    ("figure9", Figures.figure9);
    ("table2", Figures.table2);
    ("extensions", Extensions.run);
    ("mix", Mix.run);
    ("hash", Hash.run);
    ("micro", Micro.run);
  ]

let () =
  Pcolor.Obs.Log.init ();
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match requested with
    | [] -> sections
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown section %s (know: %s)\n" n
              (String.concat ", " (List.map fst sections));
            exit 2)
        names
  in
  Printf.printf
    "Compiler-Directed Page Coloring for Multiprocessors (ASPLOS 1996) — reproduction\n";
  Printf.printf "scale 1/%d (PCOLOR_SCALE to change); %s CPU sweeps; %d job(s) (PCOLOR_JOBS)\n"
    Harness.scale
    (if Harness.fast then "trimmed" else "full")
    Harness.jobs;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      let seconds = Unix.gettimeofday () -. t in
      Printf.eprintf "[section %s: %.1fs]\n%!" name seconds;
      (* machine-readable per-section artifact: every cell this section
         read, whichever section simulated it (mix and hash write their
         own richer BENCH_*.json; micro reads no cells) *)
      let cells = Harness.take_read () in
      if not (List.mem name [ "mix"; "hash"; "micro" ]) then
        Harness.write_section_artifact ~section:name ~seconds ~cells)
    to_run;
  Printf.printf "\ntotal: %.1fs over %d experiment runs\n" (Unix.gettimeofday () -. t0)
    (Atomic.get Harness.simulated)
