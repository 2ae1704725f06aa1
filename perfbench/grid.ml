(* The three workloads' experiment grids and their untraced runners.

   Every experiment returns a [result]: the measured-pass reference
   count (the work unit host time is normalized by), the canonical
   simulated output the correctness check digests, and the two
   simulated totals the benchmark sums into its identity guards. *)

module Run = Pcolor.Runtime.Run
module Btrace = Pcolor.Runtime.Btrace
module Config = Pcolor.Memsim.Config
module Machine = Pcolor.Memsim.Machine
module Mclass = Pcolor.Memsim.Mclass
module Spec = Pcolor.Workloads.Spec
module Report = Pcolor.Stats.Report
module Explain = Pcolor.Stats.Explain
module Mix = Pcolor.Sched.Mix
module Job = Pcolor.Sched.Job
module Scheduler = Pcolor.Sched.Scheduler
module Json = Pcolor.Obs.Json
module Ctx = Pcolor.Obs.Ctx

type result = {
  refs : int;  (** measured-pass simulated references (L1 hits + misses) *)
  output : string;  (** canonical simulated output, digested by the check *)
  wall_cycles : float;  (** simulated wall clock of the measured window *)
  conflict : float;  (** simulated conflict misses *)
}

(* Measured-pass references, as bench/harness.ml's refs_executed counts
   them: L1 hits + misses summed over CPUs, unweighted. *)
let refs_executed machine =
  let total = ref 0 in
  for cpu = 0 to Machine.n_cpus machine - 1 do
    let s = Machine.stats machine ~cpu in
    total := !total + s.Machine.l1_hits + s.Machine.l1_misses
  done;
  !total

let of_report ~refs (r : Report.t) =
  {
    refs;
    output = Json.to_string (Report.to_json r);
    wall_cycles = r.Report.wall_cycles;
    conflict = Report.conflict_misses r;
  }

let cdpc = Run.Cdpc { fallback = `Page_coloring; via_touch = false }

let cdpc_hash = Run.Cdpc_hash { fallback = `Page_coloring }

(* ---- sweep: the paper's figure grid, one Run.run per cell ---- *)

type sweep_cell = { bench : string; policy : Run.policy_choice; prefetch : bool; n_cpus : int }

(* Scale 16 and the CPU axis trimmed to the paper's 8-CPU machine keep
   an experiment near 25 ms and a pass near 1 s, so a 30 s run repeats
   every experiment about 20 times.  The host's speed flips at the scale
   of a second; at scale 4 (about 100 ms per experiment, 4 passes per
   run) the fastest of so few repeats still moved by a quarter between
   runs (see README.md, "Noise"). *)
let sweep_scale = 16

let sweep_policies = [ (Run.Page_coloring, false); (Run.Bin_hopping, false); (cdpc, false); (cdpc, true) ]

let sweep_cpus = [ 8 ]

let sweep_cells =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun n_cpus ->
          List.map (fun (policy, prefetch) -> { bench; policy; prefetch; n_cpus }) sweep_policies)
        sweep_cpus)
    Spec.names

let sweep_id c =
  Printf.sprintf "%s/%s%s/%d" c.bench (Run.policy_name c.policy)
    (if c.prefetch then "+pf" else "")
    c.n_cpus

(* The library's default setup (default engine); the workload seed is
   the bin-hopping race jitter's seed. *)
let sweep_setup ~seed c =
  let d = Spec.find c.bench in
  let cfg = Config.scale (Config.sgi_base ~n_cpus:c.n_cpus ()) sweep_scale in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> d.Spec.build ~scale:sweep_scale ()) ~policy:c.policy)
    with
    prefetch = c.prefetch;
    seed;
  }

let run_sweep ~seed c =
  let o = Run.run (sweep_setup ~seed c) in
  of_report ~refs:(refs_executed o.Run.machine) o.Run.report

(* ---- mix: gang-scheduled multiprogramming on a hashed, sliced LLC ---- *)

type mix_cell = { benches : string list; mpolicy : Run.policy_choice }

let mix_scale = 16

let mix_cfg =
  Config.validate
    {
      (Config.scale (Config.sgi_base ~n_cpus:8 ()) mix_scale) with
      Config.l2_slices = 4;
      l2_hash = Pcolor.Memsim.Ahash.Sandybridge;
    }

let mix_sets =
  [
    [ "tomcatv"; "swim" ];
    [ "hydro2d"; "turb3d" ];
    [ "tomcatv"; "swim"; "hydro2d"; "mgrid" ];
    [ "applu"; "wave5"; "su2cor"; "apsi" ];
  ]

let mix_cells =
  List.concat_map
    (fun benches -> List.map (fun mpolicy -> { benches; mpolicy }) [ Run.Page_coloring; cdpc_hash ])
    mix_sets

let mix_id c = Printf.sprintf "%s/%s" (String.concat "+" c.benches) (Run.policy_name c.mpolicy)

(* The shared pool holds half of the mix's combined (scaled) Table-1
   data, so the second-chance reclaimer has to run. *)
let mix_frames c =
  let mb = List.fold_left (fun a b -> a +. (Spec.find b).Spec.table1_mb) 0.0 c.benches in
  int_of_float (mb *. 1048576.0 /. float_of_int mix_scale)
  / mix_cfg.Config.page_size / 2

let mix_specs ~seed c =
  List.map
    (fun b ->
      Job.spec ~policy:c.mpolicy ~seed ~name:b (fun () -> (Spec.find b).Spec.build ~scale:mix_scale ()))
    c.benches

let of_mix (o : Mix.outcome) =
  {
    refs = refs_executed o.Mix.machine;
    output = Json.to_string (Mix.artifact_json o);
    wall_cycles = o.Mix.aggregate.Report.wall_cycles;
    conflict = Report.conflict_misses o.Mix.aggregate;
  }

let run_mix ~seed c =
  of_mix
    (Mix.run ~cfg:mix_cfg ~sched:Scheduler.default ~mem_frames:(mix_frames c) (mix_specs ~seed c))

(* ---- replay: recorded tapes replayed with every observer attached ---- *)

type replay_cell = { rbench : string; rpolicy : Run.policy_choice; rprefetch : bool }

let replay_scale = 16

let replay_cfg = Config.scale (Config.sgi_base ~n_cpus:8 ()) replay_scale

let replay_cells =
  List.concat_map
    (fun rbench ->
      List.map
        (fun (rpolicy, rprefetch) -> { rbench; rpolicy; rprefetch })
        [ (Run.Page_coloring, false); (cdpc, true) ])
    [ "tomcatv"; "swim"; "hydro2d"; "turb3d"; "applu"; "wave5" ]

let replay_id c =
  Printf.sprintf "%s/%s%s" c.rbench (Run.policy_name c.rpolicy) (if c.rprefetch then "+pf" else "")

let replay_setup ~seed c =
  let d = Spec.find c.rbench in
  {
    (Run.default_setup ~cfg:replay_cfg
       ~make_program:(fun () -> d.Spec.build ~scale:replay_scale ())
       ~policy:c.rpolicy)
    with
    prefetch = c.rprefetch;
    seed;
  }

(* Metrics registry, conflict attribution and a 1M-cycle timeline
   sampler: what `pcolor replay --metrics-out --timeline` attaches. *)
let full_obs () =
  Ctx.create ~metrics:(Pcolor.Obs.Metrics.create ())
    ~attrib:
      (Pcolor.Obs.Attrib.create ~n_colors:(Config.n_colors replay_cfg)
         ~n_classes:(List.length Mclass.all) ())
    ~sampler:(Machine.sampler_for ~epoch_cycles:1_000_000 replay_cfg)
    ~sample:false ()

(* [record ~path setup c] runs the live experiment while teeing it to a
   tape at [path]; returns the live outcome and the tape's size. *)
let record ~path (setup : Run.setup) c =
  let header =
    {
      Btrace.bench = c.rbench;
      machine = setup.Run.cfg.Config.name;
      n_cpus = setup.Run.cfg.Config.n_cpus;
      scale = replay_scale;
      policy = Run.policy_name c.rpolicy;
      prefetch = c.rprefetch;
      seed = setup.Run.seed;
      cap = setup.Run.cap;
      provenance = "";
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Btrace.create_writer oc header in
      let o = Run.run ~recorder:(Btrace.recorder w) setup in
      Btrace.finish w;
      (o, pos_out oc))

(* The four steps of one replay experiment, exposed one by one so the
   traced run can time each. *)
let replay_tape ~path (setup : Run.setup) =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Btrace.replay (Btrace.open_reader ic) ~setup:{ setup with Run.obs = full_obs () })

let serialize o =
  let artifact = Run.artifact_json o in
  (artifact, Json.pretty artifact)

let parse text =
  match Json.parse text with Ok v -> v | Error e -> failwith ("artifact does not parse back: " ^ e)

(* The replay output check beyond the report digest: the artifact
   parses back to the value that was written, and explain renders. *)
let replay_result ~artifact ~parsed ~explained (o : Run.outcome) =
  if Json.to_string parsed <> Json.to_string artifact then
    failwith "artifact changed across serialize/parse";
  if String.length explained = 0 then failwith "explain rendered nothing";
  of_report ~refs:(refs_executed o.Run.machine) o.Run.report

let run_replay ~path setup =
  let o = replay_tape ~path setup in
  let artifact, text = serialize o in
  let parsed = parse text in
  let explained = Explain.render parsed in
  replay_result ~artifact ~parsed ~explained o
