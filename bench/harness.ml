(* Shared plumbing for the reproduction harness: run configuration,
   experiment execution with progress reporting, and result caching so
   Table 2 can reuse Figure 9's runs.

   Every experiment is an independent trace-driven simulation owning its
   private machine/kernel/program, so sections fan their full experiment
   grid out across PCOLOR_JOBS domains up front (prefill) and then
   render tables from the cache sequentially — stdout is byte-identical
   for any job count, and PCOLOR_JOBS=1 restores the sequential order
   exactly. *)

module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report
module Config = Pcolor.Memsim.Config
module Spec = Pcolor.Workloads.Spec
module Table = Pcolor.Util.Table
module Pool = Pcolor.Util.Pool

(* A bad environment value is one stderr line and exit 2, never an
   uncaught exception. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* Scale divisor for data sets and caches.  4 preserves the paper's
   color-space geometry closely (64 colors on the base machine) and
   keeps the full harness to tens of minutes; override with
   PCOLOR_SCALE=1|4|16|64|256 (1 = the paper's exact geometry, slow;
   64 = smoke-sized, what CI runs).  256 leaves the 1 MB L2 of the sgi
   and sgi-2way models fewer than two colors, so every section that
   simulates them refuses it. *)
let scale =
  match Sys.getenv_opt "PCOLOR_SCALE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some (1 | 4 | 16 | 64 | 256 as v) -> v
    | _ -> usage_error "PCOLOR_SCALE=%S: use 1, 4, 16, 64 or 256" s)
  | None -> 4

(* Fast mode trims CPU sweeps; used by CI-style smoke runs. *)
let fast = Sys.getenv_opt "PCOLOR_FAST" <> None

let cpu_counts = if fast then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ]

let alpha_cpu_counts = if fast then [ 1; 8 ] else [ 1; 2; 4; 8 ]

(* [machine] is a {!Config.models} name. *)
let machine_cfg machine ~n_cpus =
  try Config.scale ((List.assoc machine Config.models) ~n_cpus ()) scale
  with Invalid_argument msg ->
    usage_error "PCOLOR_SCALE=%d is too large for the %s machine model (%s)" scale machine msg

let cdpc = Run.Cdpc { fallback = `Page_coloring; via_touch = false }

let cdpc_touch = Run.Cdpc { fallback = `Bin_hopping; via_touch = true }

(* Parallelism: number of worker domains for prefilled experiment
   grids.  PCOLOR_JOBS=1 restores strictly sequential execution. *)
let jobs = Pool.default_jobs ()

(* Optional structured tracing: PCOLOR_TRACE=path streams every
   experiment's phase spans and VM events into one Chrome-trace JSONL
   file (each experiment gets its own trace pid).  Opened at startup,
   not lazily: experiments on several domains would otherwise race to
   force the lazy value, and the loser raises
   [CamlinternalLazy.Undefined]. *)
let trace_sink =
  match Sys.getenv_opt "PCOLOR_TRACE" with
  | None -> None
  | Some path ->
    let sink = Pcolor.Obs.Trace.open_sink ~path in
    at_exit (fun () -> Pcolor.Obs.Trace.close sink);
    Some sink

let obs_ctx () =
  match trace_sink with
  | None -> Pcolor.Obs.Ctx.disabled
  | Some sink -> Pcolor.Obs.Ctx.create ~trace:(Pcolor.Obs.Trace.buffer sink) ()

(* Result cache: one experiment may be referenced by several tables.
   The mutex makes it safe to fill from several domains; Report.t values
   are immutable once published. *)
let cache : (string, Report.t) Hashtbl.t = Hashtbl.create 256

let cache_mutex = Mutex.create ()

let cache_find k = Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache k)

let cache_add k r = Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache k r)

let cache_size () = Mutex.protect cache_mutex (fun () -> Hashtbl.length cache)

let key ~bench ~machine ~n_cpus ~policy ~prefetch =
  Printf.sprintf "%s/%s/%d/%s/%b" bench machine n_cpus (Run.policy_name policy) prefetch

let experiment ?(prefetch = false) ~bench ~machine ~n_cpus ~policy () =
  let k = key ~bench ~machine ~n_cpus ~policy ~prefetch in
  match cache_find k with
  | Some r -> r
  | None ->
    let t0 = Unix.gettimeofday () in
    let d = Spec.find bench in
    let cfg = machine_cfg machine ~n_cpus in
    let setup =
      {
        (Run.default_setup ~cfg ~make_program:(fun () -> d.build ~scale ()) ~policy) with
        prefetch;
        obs = obs_ctx ();
      }
    in
    let r = (Run.run setup).report in
    cache_add k r;
    Printf.eprintf "  [%5.1fs] %s\n%!" (Unix.gettimeofday () -. t0) k;
    r

(* An experiment grid entry for prefill. *)
type exp = {
  e_bench : string;
  e_machine : string;
  e_n_cpus : int;
  e_policy : Run.policy_choice;
  e_prefetch : bool;
}

let exp ?(prefetch = false) ~bench ~machine ~n_cpus ~policy () =
  { e_bench = bench; e_machine = machine; e_n_cpus = n_cpus; e_policy = policy; e_prefetch = prefetch }

(* Estimated simulation cost of an experiment, for scheduling only: work
   scales with CPU count (each CPU runs the partitioned nests) and with
   the workload's data-set size (Table 1).  Units are arbitrary. *)
let exp_cost e = float_of_int e.e_n_cpus *. (Spec.find e.e_bench).Spec.table1_mb

(* [prefill exps] computes every not-yet-cached experiment of the grid
   with [Pool.run_all].  Results land in the cache only; callers then
   render tables sequentially, so table output is independent of the
   completion order.

   Tasks are listed longest-processing-time-first, and the pool starts
   them in list order: grid order groups cheap single-CPU runs before
   expensive 8/16-CPU ones, so grid order regularly started a
   multi-minute experiment last and left every other domain idle for its
   whole tail. *)
let prefill exps =
  let seen = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun e ->
        let k =
          key ~bench:e.e_bench ~machine:e.e_machine ~n_cpus:e.e_n_cpus ~policy:e.e_policy
            ~prefetch:e.e_prefetch
        in
        if Hashtbl.mem seen k || cache_find k <> None then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      exps
  in
  let todo = List.stable_sort (fun a b -> compare (exp_cost b) (exp_cost a)) todo in
  Pool.run_all ~jobs
    (List.map
       (fun e () ->
         ignore
           (experiment ~prefetch:e.e_prefetch ~bench:e.e_bench ~machine:e.e_machine
              ~n_cpus:e.e_n_cpus ~policy:e.e_policy ()))
       todo)

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n")

(* ---- machine-readable section artifacts ---- *)

(* [cache_keys ()] is the sorted key set currently cached. *)
let cache_keys () =
  Mutex.protect cache_mutex (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) cache [])
  |> List.sort compare

(* [provenance ()] stamps scale/jobs into the artifact header; one
   stamp per bench process, shared by every artifact it writes. *)
let provenance =
  let stamp = lazy (Pcolor.Obs.Provenance.collect ~scale ~jobs ()) in
  fun () -> Lazy.force stamp

(* [sanitize_section name] maps a section name to a filename fragment
   ("figure3+5" -> "figure3_5"). *)
let sanitize_section name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_') name

(* [write_section_artifact ~section ~seconds ~keys] dumps the named
   experiments' reports (JSON per DESIGN §9) to BENCH_<section>.json.
   [keys] is the set of cache keys the section populated. *)
let write_section_artifact ~section:name ~seconds ~keys =
  let module J = Pcolor.Obs.Json in
  let experiments =
    List.filter_map
      (fun k ->
        Option.map
          (fun r -> J.Obj [ ("key", J.Str k); ("report", Report.to_json r) ])
          (cache_find k))
      keys
  in
  let file = Printf.sprintf "BENCH_%s.json" (sanitize_section name) in
  let oc = open_out file in
  output_string oc
    (J.pretty
       (J.Obj
          [
            ("schema_version", J.Int Pcolor.Obs.Provenance.schema_version);
            ("section", J.Str name);
            ("seconds", J.Float seconds);
            ("provenance", Pcolor.Obs.Provenance.to_json (provenance ()));
            ("experiments", J.Arr experiments);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "  wrote %s (%d experiments)\n%!" file (List.length experiments)
