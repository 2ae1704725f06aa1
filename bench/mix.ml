(* Multiprogramming mix throughput: how much of CDPC's single-job
   conflict-miss advantage survives when 2 and 4 jobs gang-share one
   machine and one frame pool.

   For each mix size the same job set runs under page coloring, bin
   hopping and CDPC (every job gets the policy), and the aggregate
   measured window is compared.  Context switching churns the shared
   caches between quanta (cross-job pollution), so the single-job gap is
   the upper bound; the shape check asserts CDPC still beats page
   coloring on conflict misses at every mix size.  Numbers land in
   BENCH_mix.json for cross-PR tracking (make bench-check). *)

module Mix = Pcolor.Sched.Mix
module Job = Pcolor.Sched.Job
module Scheduler = Pcolor.Sched.Scheduler
module Mclass = Pcolor.Memsim.Mclass
open Harness

let mixes =
  [
    ("1job", [ "tomcatv" ]);
    ("2job", [ "tomcatv"; "swim" ]);
    ("4job", [ "tomcatv"; "swim"; "hydro2d"; "mgrid" ]);
  ]

let policies = [ Run.Page_coloring; Run.Bin_hopping; cdpc ]

let run_mix ~benches ~policy =
  let cfg = machine_cfg "sgi" ~n_cpus:8 in
  let specs =
    List.map
      (fun bench -> Job.spec ~policy ~name:bench (fun () -> (Spec.find bench).build ~scale ()))
      benches
  in
  Mix.run ~cfg ~sched:Scheduler.default specs

let mix_cost (_, benches) = List.fold_left (fun a b -> a +. (Spec.find b).Spec.table1_mb) 0.0 benches

let run () =
  section "Mix throughput: CDPC under multiprogramming (gang, 8 CPUs, shared pool)";
  let grid = List.concat_map (fun m -> List.map (fun p -> (m, p)) policies) mixes in
  let n = List.length grid in
  let outcomes = Array.make n None in
  (* costliest cells first; each writes its own index slot, so the
     result order is the grid's whatever the completion order *)
  let tasks =
    List.mapi
      (fun i ((_, benches), policy) ->
        (mix_cost ("", benches), fun () -> outcomes.(i) <- Some (run_mix ~benches ~policy)))
      grid
  in
  Pcolor.Util.Pool.run_all ~jobs
    (List.map snd (List.stable_sort (fun (ca, _) (cb, _) -> compare cb ca) tasks));
  let t =
    Table.create ~title:"aggregate measured window per mix and policy"
      [ "mix"; "policy"; "wall cycles"; "MCPI"; "conflict"; "honored%"; "switches" ]
  in
  let conflict (r : Report.t) = Report.conflict_misses r in
  let results =
    List.mapi
      (fun i ((label, benches), policy) ->
        let o = Option.get outcomes.(i) in
        let r = o.Mix.aggregate in
        let honored_pct =
          let tot = r.Report.hints_honored + r.Report.hints_fallback in
          if tot = 0 then 100.0 else 100.0 *. float_of_int r.Report.hints_honored /. float_of_int tot
        in
        Table.add_row t
          [
            label;
            Run.policy_name policy;
            Printf.sprintf "%.3e" r.Report.wall_cycles;
            Table.fcell r.Report.mcpi;
            Printf.sprintf "%.0f" (conflict r);
            Printf.sprintf "%.0f" honored_pct;
            string_of_int o.Mix.sched_stats.Scheduler.switches;
          ];
        (label, benches, policy, o))
      grid
  in
  Table.print t;
  (* shape: alone, CDPC must beat page coloring on conflict misses (the
     paper's core claim); under a mix the gap legitimately narrows or
     inverts — gang switching interleaves identically-colored address
     spaces through the same caches, so pollution erodes the carefully
     laid-out placement.  Report the retention per mix size. *)
  List.iter
    (fun (label, _) ->
      let get p =
        let _, _, _, o = List.find (fun (l, _, pol, _) -> l = label && pol = p) results
        in
        conflict o.Mix.aggregate
      in
      let pc = get Run.Page_coloring and cd = get cdpc in
      let verdict =
        if label = "1job" then
          if cd <= pc then "CDPC advantage holds (paper claim)"
          else "INVERTED ALONE — investigate"
        else if cd <= pc then "advantage survives the mix"
        else "advantage lost to cross-job pollution"
      in
      note "  %s: conflict misses pc %.0f vs cdpc %.0f -> %s" label pc cd verdict)
    mixes;
  (* ---- BENCH_mix.json ---- *)
  let module J = Pcolor.Obs.Json in
  let mix_json (label, benches, policy, (o : Mix.outcome)) =
    let r = o.Mix.aggregate in
    let st = o.Mix.sched_stats in
    let invocations, _, second_chances, evictions = Pcolor.Sched.Reclaim.stats o.Mix.reclaim in
    J.Obj
      [
        ("mix", J.Str label);
        ("benchmarks", J.Arr (List.map (fun b -> J.Str b) benches));
        ("policy", J.Str (Run.policy_name policy));
        ("n_jobs", J.Int (Array.length o.Mix.jobs));
        ("wall_cycles", J.Float r.Report.wall_cycles);
        ("mcpi", J.Float r.Report.mcpi);
        ("conflict_misses", J.Float (conflict r));
        ( "l2_misses_by_class",
          J.Obj
            (List.map
               (fun cls ->
                 ( Mclass.to_string cls,
                   J.Float r.Report.l2_misses_by_class.(Mclass.index cls) ))
               Mclass.all) );
        ("page_faults", J.Int r.Report.page_faults);
        ("hints_honored", J.Int r.Report.hints_honored);
        ("hints_fallback", J.Int r.Report.hints_fallback);
        ("dispatches", J.Int st.Scheduler.dispatches);
        ("switches", J.Int st.Scheduler.switches);
        ("switch_cycles", J.Int st.Scheduler.switch_cycles);
        ( "reclaim",
          J.Obj
            [
              ("invocations", J.Int invocations);
              ("second_chances", J.Int second_chances);
              ("evictions", J.Int evictions);
            ] );
      ]
  in
  let json =
    J.Obj
      [
        ("schema_version", J.Int Pcolor.Obs.Provenance.schema_version);
        ("provenance", Pcolor.Obs.Provenance.to_json (provenance ()));
        ("scale", J.Int scale);
        ("sched", J.Str (Scheduler.policy_name Scheduler.default.Scheduler.policy));
        ("quantum", J.Int Scheduler.default.Scheduler.quantum);
        ("mixes", J.Arr (List.map mix_json results));
      ]
  in
  let oc = open_out "BENCH_mix.json" in
  output_string oc (J.pretty json);
  output_char oc '\n';
  close_out oc;
  note "  wrote BENCH_mix.json"
