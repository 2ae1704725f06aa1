(* Multiprogramming subsystem: scheduler identity/determinism, the
   per-job/aggregate reconciliation invariant, second-chance reclaim,
   and the satellite allocator/jitter properties. *)

module Run = Pcolor.Runtime.Run
module Job = Pcolor.Sched.Job
module Scheduler = Pcolor.Sched.Scheduler
module Mix = Pcolor.Sched.Mix
module Reclaim = Pcolor.Sched.Reclaim
module Kernel = Pcolor.Vm.Kernel
module Page_table = Pcolor.Vm.Page_table
module Frame_pool = Pcolor.Vm.Frame_pool
module Mclass = Pcolor.Memsim.Mclass
module Metrics = Pcolor.Obs.Metrics
module Json = Pcolor.Obs.Json

let fig4 () = Helpers.figure4_program ()

let spec ?policy name = Job.spec ?policy ~name fig4

(* A one-job gang mix must replay the exact operation sequence of a
   plain run: every report field identical (floats included). *)
let check_single_job_identity ~label ~cfg ~prefetch ~make_program policy =
  let o = Run.run { (Run.default_setup ~cfg ~make_program ~policy) with Run.prefetch } in
  let mix = Mix.run ~cfg [ Job.spec ~policy ~prefetch ~name:label make_program ] in
  Alcotest.(check bool)
    (Printf.sprintf "1-job mix report = run report (%s, %s)" (Run.policy_name policy) label)
    true
    (o.Run.report = mix.Mix.reports.(0))

(* Every [Run.policy_choice] a command line can name. *)
let all_policies =
  [
    Run.Page_coloring;
    Run.Bin_hopping;
    Run.Bin_hopping_unaligned;
    Run.Random_colors;
    Run.Cdpc { fallback = `Page_coloring; via_touch = false };
    Run.Cdpc { fallback = `Bin_hopping; via_touch = false };
    Run.Cdpc { fallback = `Bin_hopping; via_touch = true };
    Run.Cdpc_hash { fallback = `Page_coloring };
    Run.Cdpc_hash { fallback = `Bin_hopping };
    Run.Dynamic_recoloring { base = `Page_coloring };
    Run.Dynamic_recoloring { base = `Bin_hopping };
  ]

(* Replay parses the [policy_name] label stored in a tape header, so
   every label must parse back to its policy. *)
let test_policy_names_round_trip () =
  Alcotest.(check int) "eleven policies" 11 (List.length all_policies);
  List.iter
    (fun p ->
      let name = Run.policy_name p in
      Alcotest.(check bool) (name ^ " round-trips") true (Run.policy_of_name name = Ok p))
    all_policies;
  Alcotest.(check bool) "unknown name" true (Result.is_error (Run.policy_of_name "nope"))

(* Every policy, without and with software prefetch, prefetching on a
   2-slice hashed LLC, and on a workload whose conflicts make the
   dynamic policies actually move pages: a job's recolor hook,
   cdpc-touch order, classified pool and prefetch plan are the plain
   run's own. *)
let test_single_job_identity () =
  let flat = Helpers.tiny_cfg ~n_cpus:2 () in
  let sliced =
    Helpers.tiny_cfg ~n_cpus:2 ~l2_slices:2 ~l2_hash:Pcolor.Memsim.Ahash.Sandybridge ()
  in
  let tomcatv () = (Pcolor.Workloads.Spec.find "tomcatv").build ~scale:64 () in
  List.iter
    (fun (label, cfg, prefetch, make_program) ->
      List.iter
        (check_single_job_identity ~label ~cfg ~prefetch ~make_program)
        all_policies)
    [
      ("fig4", flat, false, fig4);
      ("fig4 prefetch", flat, true, fig4);
      ("fig4 prefetch, 2-slice sandybridge LLC", sliced, true, fig4);
      ("tomcatv/64", flat, false, tomcatv);
    ]

(* Full observability on: same mix twice -> byte-identical artifacts
   (compared without provenance, whose timestamp legitimately moves). *)
let run_mix_with_obs ?sched ?mem_frames () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let metrics = Metrics.create () in
  let attrib =
    Pcolor.Obs.Attrib.create
      ~n_colors:(Pcolor.Memsim.Config.n_colors cfg)
      ~n_classes:(List.length Mclass.all) ()
  in
  let obs = Pcolor.Obs.Ctx.create ~metrics ~attrib () in
  let specs =
    [ spec ~policy:Run.Page_coloring "a"; spec ~policy:Run.Bin_hopping "b" ]
  in
  Mix.run ~cfg ?sched ?mem_frames ~obs specs

let test_mix_artifact_determinism () =
  let a = Mix.artifact_json (run_mix_with_obs ()) in
  let b = Mix.artifact_json (run_mix_with_obs ()) in
  Alcotest.(check string)
    "two identical mixes serialize identically" (Json.to_string a) (Json.to_string b)

let counter_value snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter v) -> v
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "missing counter %s" name

(* The reconciliation invariant: scheduler slices are temporally
   exclusive, so per-job measured miss deltas and per-kernel fault
   counts must sum exactly to the machine-wide registry totals (which
   reflect the post-warm-up reset). *)
let test_reconciliation () =
  let mix = run_mix_with_obs () in
  let snap = Option.get mix.Mix.metrics in
  List.iter
    (fun cls ->
      let name = "memsim.l2_miss." ^ Mclass.to_string cls in
      let per_job =
        Array.fold_left
          (fun acc (j : Job.t) -> acc + Mclass.get j.Job.l2_measured cls)
          0 mix.Mix.jobs
      in
      Alcotest.(check int) name (counter_value snap name) per_job)
    Mclass.all;
  let per_job_faults =
    Array.fold_left (fun acc (j : Job.t) -> acc + Kernel.faults j.Job.kernel) 0 mix.Mix.jobs
  in
  Alcotest.(check int) "vm.page_faults" (counter_value snap "vm.page_faults") per_job_faults;
  (* the per-job registry counters agree with the job structs *)
  Array.iter
    (fun (j : Job.t) ->
      let prefix = Printf.sprintf "job.%d.%s." j.Job.asid j.Job.spec.Job.name in
      Alcotest.(check int)
        (prefix ^ "page_faults")
        (counter_value snap (prefix ^ "page_faults"))
        (Kernel.faults j.Job.kernel))
    mix.Mix.jobs

(* Under a pool far smaller than the combined working set, the
   second-chance reclaimer must keep the mix running to completion
   instead of raising Out_of_frames. *)
let test_reclaim_under_pressure () =
  let mix = run_mix_with_obs ~mem_frames:12 () in
  let invocations, scanned, _, evictions = Reclaim.stats mix.Mix.reclaim in
  Alcotest.(check bool) "reclaimer invoked" true (invocations > 0);
  Alcotest.(check bool) "frames scanned" true (scanned > 0);
  Alcotest.(check bool) "frames evicted" true (evictions > 0);
  Alcotest.(check bool)
    "pool stayed within bounds" true
    (Frame_pool.total_frames mix.Mix.pool = 12);
  Array.iter
    (fun (r : Pcolor.Stats.Report.t) ->
      Alcotest.(check bool) "job still produced work" true (r.instructions > 0.0))
    mix.Mix.reports

let test_space_sharing_deterministic () =
  let sched = { Scheduler.default with Scheduler.policy = Scheduler.Space } in
  let a = run_mix_with_obs ~sched () in
  let b = run_mix_with_obs ~sched () in
  Alcotest.(check string)
    "space-shared mixes serialize identically"
    (Json.to_string (Mix.artifact_json a))
    (Json.to_string (Mix.artifact_json b));
  (* disjoint contiguous partitions, no switches ever charged *)
  let ranges =
    Array.to_list (Array.map (fun (j : Job.t) -> (j.Job.first_cpu, j.Job.width)) a.Mix.jobs)
  in
  Alcotest.(check (list (pair int int))) "partitions" [ (0, 1); (1, 1) ] ranges;
  Alcotest.(check int) "no context switches" 0 a.Mix.sched_stats.Scheduler.switches

let test_tlb_flush_mode () =
  let sched = { Scheduler.default with Scheduler.tlb = Scheduler.Flush } in
  let mix = run_mix_with_obs ~sched () in
  let st = mix.Mix.sched_stats in
  Alcotest.(check bool) "switches happened" true (st.Scheduler.switches > 0);
  Alcotest.(check bool) "TLBs flushed" true (st.Scheduler.tlb_flushes > 0);
  (* flushing must not change *what* is mapped, only re-fill costs: the
     page tables still partition the pool exactly *)
  let mapped =
    Array.fold_left
      (fun acc (j : Job.t) ->
        let n = ref 0 in
        Page_table.iter (Kernel.page_table j.Job.kernel) (fun ~vpage:_ ~frame:_ -> incr n);
        acc + !n)
      0 mix.Mix.jobs
  in
  Alcotest.(check int) "mapped frames = allocated frames" mapped
    (Frame_pool.total_frames mix.Mix.pool - Frame_pool.free_frames mix.Mix.pool)

(* Satellite: the outward-scan fallback always lands on a nearest free
   color (circular distance), given the free-list state at call time. *)
let prop_alloc_nearest_free_color =
  QCheck.Test.make ~name:"alloc fallback lands on a nearest free color" ~count:500
    QCheck.(pair (int_range 0 63) (list_of_size (Gen.int_range 0 40) (int_range 0 63)))
    (fun (preferred, churn) ->
      let n = 8 in
      let pool = Frame_pool.create ~frames:32 ~n_colors:n in
      List.iter (fun c -> ignore (Frame_pool.alloc pool ~preferred:c)) churn;
      let free_before = Array.init n (fun c -> Frame_pool.free_of_color pool c) in
      let p = preferred mod n in
      let dist c = min ((c - p + n) mod n) ((p - c + n) mod n) in
      match Frame_pool.alloc pool ~preferred with
      | None -> Frame_pool.free_frames pool = 0
      | Some f ->
        let got = f mod n in
        free_before.(got) > 0
        && Array.for_all
             (fun c -> dist c >= dist got || free_before.(c) = 0)
             (Array.init n Fun.id))

(* Satellite: the bin-hopping fault-race jitter is seeded — the same
   seed must reproduce the identical virtual->physical mapping. *)
let mapping_of_run seed =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  let setup =
    { (Run.default_setup ~cfg ~make_program:fig4 ~policy:Run.Bin_hopping) with seed }
  in
  let o = Run.run setup in
  let acc = ref [] in
  Page_table.iter
    (Kernel.page_table o.Run.kernel)
    (fun ~vpage ~frame -> acc := (vpage, frame) :: !acc);
  List.sort compare !acc

let prop_race_jitter_deterministic =
  QCheck.Test.make ~name:"bin-hopping race jitter: same seed, same mapping" ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed -> mapping_of_run seed = mapping_of_run seed)

let suite =
  [
    ( "sched",
      [
        Alcotest.test_case "single-job gang mix = plain run" `Quick test_single_job_identity;
        Alcotest.test_case "2-job mix artifact deterministic" `Quick
          test_mix_artifact_determinism;
        Alcotest.test_case "per-job counters reconcile with registry" `Quick
          test_reconciliation;
        Alcotest.test_case "second-chance reclaim under pressure" `Quick
          test_reclaim_under_pressure;
        Alcotest.test_case "space sharing deterministic, disjoint" `Quick
          test_space_sharing_deterministic;
        Alcotest.test_case "flush mode switches and flushes" `Quick test_tlb_flush_mode;
        Alcotest.test_case "policy names round-trip" `Quick test_policy_names_round_trip;
      ] );
    Helpers.qsuite "sched:props"
      [ prop_alloc_nearest_free_color; prop_race_jitter_deterministic ];
  ]
