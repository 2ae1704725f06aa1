(* Expected simulated outputs (perfbench/expected.txt).

   One line per (workload, seed, experiment): the MD5 of the
   experiment's canonical output, its measured-pass reference count and
   its two simulated totals (hex floats, so they read back exactly).
   Two seeds are kept, the default and one held out.  Regenerate with
   `bench.exe --write-expected` after a change that is meant to move
   simulated results. *)

type row = { digest : string; refs : int; wall_cycles : float; conflict : float }

type t = (string * int * string, row) Hashtbl.t

let default_seed = 42

(* An experiment counts as seed-free when both kept seeds give the same
   output, so the held-out seed has to move every seed-dependent one:
   seed 7 happens to give fpppp's bin-hopping cell the default seed's
   output; seed 8 moves all ten. *)
let heldout_seed = 8

let row_of (r : Grid.result) =
  {
    digest = Digest.to_hex (Digest.string r.Grid.output);
    refs = r.Grid.refs;
    wall_cycles = r.Grid.wall_cycles;
    conflict = r.Grid.conflict;
  }

let load path : t =
  let t = Hashtbl.create 512 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            Scanf.sscanf line "%s %d %s %s %d %h %h" (fun w seed id digest refs wall_cycles conflict ->
                Hashtbl.replace t (w, seed, id) { digest; refs; wall_cycles; conflict })
        done
      with End_of_file -> ());
  t

let write path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# workload seed experiment md5(output) refs wall_cycles conflict_misses\n";
      List.iter
        (fun (w, seed, id, r) ->
          Printf.fprintf oc "%s %d %s %s %d %h %h\n" w seed id r.digest r.refs r.wall_cycles
            r.conflict)
        rows)

(* [expect t ~workload ~seed ~id] is the row an output must match
   exactly: this seed's own row, or — for an experiment whose output
   the seed does not move (both kept seeds agree) — the default seed's
   row.  [None] for a seed-dependent experiment at another seed. *)
let expect t ~workload ~seed ~id =
  match Hashtbl.find_opt t (workload, seed, id) with
  | Some r -> Some r
  | None -> (
    match
      ( Hashtbl.find_opt t (workload, default_seed, id),
        Hashtbl.find_opt t (workload, heldout_seed, id) )
    with
    | Some a, Some b when a.digest = b.digest -> Some a
    | _ -> None)

(* [seed_free t ~workload ~id] is true when the seed does not move the
   experiment's output (both kept seeds agree). *)
let seed_free t ~workload ~id =
  match
    ( Hashtbl.find_opt t (workload, default_seed, id),
      Hashtbl.find_opt t (workload, heldout_seed, id) )
  with
  | Some a, Some b -> a.digest = b.digest
  | _ -> false

(* [check t ~workload ~seed ~id r] raises [Failure] when [r] does not
   match its expectation.  A seed-dependent experiment at a seed with no
   row is held to the reference count, which no seed moves. *)
let check t ~workload ~seed ~id r =
  let got = row_of r in
  match expect t ~workload ~seed ~id with
  | Some e -> if e.digest <> got.digest then failwith "output differs from the expected digest"
  | None -> (
    match Hashtbl.find_opt t (workload, default_seed, id) with
    | Some e ->
      if e.refs <> got.refs then failwith "reference count differs from the expected count"
    | None -> failwith "no expected output for this experiment")
