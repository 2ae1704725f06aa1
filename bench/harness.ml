(* Shared plumbing for the reproduction harness: run configuration,
   the experiment grids sections read, progress reporting and the
   per-section artifacts.

   Every experiment is a {!Cell}, an independent trace-driven
   simulation owning its private machine/kernel/program.  A section
   states its grid once ([grid]); the cells no earlier section
   simulated fan out across PCOLOR_JOBS domains up front (so Table 2
   reuses Figure 9's runs), and the section renders its tables from the
   grid's reports sequentially — stdout is byte-identical for any job
   count, and PCOLOR_JOBS=1 restores the sequential order exactly. *)

module Run = Pcolor.Runtime.Run
module Report = Pcolor.Stats.Report
module Config = Pcolor.Memsim.Config
module Spec = Pcolor.Workloads.Spec
module Table = Pcolor.Util.Table
module Pool = Pcolor.Util.Pool
module Cell = Pcolor.Runtime.Cell

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
   keeps the full harness to about 20 s on two cores; override with
   PCOLOR_SCALE, one of {!Pcolor.Workloads.Gen.scales} (1 = the paper's
   exact geometry, slow; 64 = smoke-sized, what CI runs).  256 leaves
   the 1 MB L2 of the sgi and sgi-2way models fewer than two colors, so
   every section that simulates them refuses it. *)
let scale =
  let module Gen = Pcolor.Workloads.Gen in
  match Sys.getenv_opt "PCOLOR_SCALE" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some v when List.mem v Gen.scales -> v
    | _ -> usage_error "PCOLOR_SCALE=%S: %s" s Gen.scales_doc)
  | None -> 4

(* Fast mode trims CPU sweeps; used by CI-style smoke runs. *)
let fast = Sys.getenv_opt "PCOLOR_FAST" <> None

let cpu_counts = if fast then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ]

let alpha_cpu_counts = if fast then [ 1; 8 ] else [ 1; 2; 4; 8 ]

(* [machine ?scale ?slices ?hash model ~n_cpus] is a {!Cell.machine}
   at the harness scale unless [scale] says otherwise.  The sections fix
   every other input, so only the scale can be refused: here, on the
   main domain, before any cell simulates. *)
let machine ?(scale = scale) ?slices ?hash model ~n_cpus =
  match Cell.machine ?slices ?hash ~model ~n_cpus ~scale () with
  | Ok m -> m
  | Error (_, msg) -> usage_error "PCOLOR_SCALE=%s" msg

let cell ?prefetch ?slices ?hash ~bench ~machine:model ~n_cpus ~policy () =
  Cell.make ?prefetch ~machine:(machine ?slices ?hash model ~n_cpus) ~bench ~policy ()

(* Parallelism: number of worker domains for experiment grids.
   PCOLOR_JOBS=1 restores strictly sequential execution. *)
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

(* Every cell simulated so far, each printed to stderr as it ends. *)
let simulated = Atomic.make 0

let reports =
  Cell.runner ~obs:obs_ctx ~jobs
    ~progress:(fun c seconds ->
      Atomic.incr simulated;
      Printf.eprintf "  [%5.1fs] %s\n%!" seconds (Cell.key c))

(* The (key, report) of every cell the running section has read. *)
let read = ref []

(* [xs *** ys] is every (x, y) pair, x-major: a product of grid
   coordinates (right-associative: [a *** b *** c] pairs are
   (a, (b, c))). *)
let ( *** ) xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* [grid f coords] is a section's grid, stated once: the cell [f c] of
   every coordinate [c] is simulated (the ones no earlier section ran,
   in parallel, costliest first) and recorded as read, and the result
   looks a coordinate's report up.  Coordinates outside [coords] raise
   [Not_found]: a table reads only the grid it declared. *)
let grid f coords =
  let cells = List.map f coords in
  let rs = reports cells in
  read := List.map2 (fun c r -> (Cell.key c, r)) cells rs @ !read;
  let by_coord = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace by_coord) coords rs;
  Hashtbl.find by_coord

(* [take_read ()] is every cell read since the last call, sorted by
   key, and forgets them. *)
let take_read () =
  let cells = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) !read in
  read := [];
  cells

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n")

(* ---- machine-readable artifacts ---- *)

(* [provenance ()] stamps scale/jobs into the artifact header; one
   stamp per bench process, shared by every artifact it writes. *)
let provenance =
  let stamp = lazy (Pcolor.Obs.Provenance.collect ~scale ~jobs ()) in
  fun () -> Lazy.force stamp

(* [write_artifact ?before file fields] writes [file] as pretty JSON:
   the schema version, the [before] fields, this process's provenance
   stamp, then [fields]. *)
let write_artifact ?(before = []) file fields =
  let module J = Pcolor.Obs.Json in
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (J.pretty
           (J.Obj
              ((("schema_version", J.Int Pcolor.Obs.Provenance.schema_version) :: before)
              @ (("provenance", Pcolor.Obs.Provenance.to_json (provenance ())) :: fields))));
      output_char oc '\n')

(* [sanitize_section name] maps a section name to a filename fragment
   ("figure3+5" -> "figure3_5"). *)
let sanitize_section name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '_') name

(* [write_section_artifact ~section ~seconds ~cells] dumps the
   section's (key, report) cells (JSON per DESIGN §9) to
   BENCH_<section>.json. *)
let write_section_artifact ~section:name ~seconds ~cells =
  let module J = Pcolor.Obs.Json in
  let file = Printf.sprintf "BENCH_%s.json" (sanitize_section name) in
  write_artifact file
    ~before:[ ("section", J.Str name); ("seconds", J.Float seconds) ]
    [
      ( "experiments",
        J.Arr
          (List.map (fun (k, r) -> J.Obj [ ("key", J.Str k); ("report", Report.to_json r) ]) cells)
      );
    ];
  Printf.eprintf "  wrote %s (%d experiments)\n%!" file (List.length cells)
