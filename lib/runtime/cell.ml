(* One experiment cell and a memoized runner over cells.  The memo is
   touched only by the calling domain: pool tasks return reports,
   published after the pool joins, so no lock is needed. *)

module Config = Pcolor_memsim.Config
module Ahash = Pcolor_memsim.Ahash
module Spec = Pcolor_workloads.Spec
module Gen = Pcolor_workloads.Gen

type machine = { model : string; scale : int; cfg : Config.t }

type axis = Model | Cpus | Scale | Slicing

let machine ?slices ?hash ~model ~n_cpus ~scale () =
  let fail axis fmt = Printf.ksprintf (fun msg -> Error (axis, msg)) fmt in
  match List.assoc_opt model Config.models with
  | None -> fail Model "unknown machine model %S" model
  | Some _ when n_cpus < 1 -> fail Cpus "need at least one CPU (got %d)" n_cpus
  | Some _ when n_cpus > Config.max_cpus ->
    fail Cpus "at most %d CPUs (got %d)" Config.max_cpus n_cpus
  | Some _ when not (List.mem scale Gen.scales) -> fail Scale "%s (got %d)" Gen.scales_doc scale
  | Some base -> (
    match Config.scale (base ~n_cpus ()) scale with
    | exception Invalid_argument msg ->
      fail Scale "%d is too large for the %s machine model (%s)" scale model msg
    | cfg -> (
      let l2_slices = Option.value slices ~default:cfg.l2_slices
      and l2_hash = Option.value hash ~default:cfg.l2_hash in
      match Config.validate { cfg with l2_slices; l2_hash } with
      | cfg -> Ok { model; scale; cfg }
      | exception Invalid_argument msg -> fail Slicing "%s" msg))

(* Every model's external cache is one slice with the identity hash
   unless [machine] slices it. *)
let sliced m = m.cfg.l2_slices <> 1 || m.cfg.l2_hash <> Ahash.Identity

type t = {
  bench : string;
  machine : machine;
  policy : Run.policy_choice;
  prefetch : bool;
  seed : int;
  cap : int;
}

(* {!Run.default_setup}'s seed and window cap, which a key leaves
   unsaid *)
let defaults =
  Run.default_setup ~cfg:(Config.sgi_base ()) ~policy:Run.Page_coloring
    ~make_program:(fun () -> invalid_arg "Cell.defaults")

let make ?(prefetch = false) ?(seed = defaults.seed) ?(cap = defaults.cap) ~machine ~bench
    ~policy () =
  ignore (Spec.find bench);
  { bench; machine; policy; prefetch; seed; cap }

let key c =
  let m = c.machine in
  String.concat "/"
    ([
       c.bench;
       (if sliced m then
          Printf.sprintf "%s+%dx%s" m.model m.cfg.l2_slices (Ahash.spec_to_string m.cfg.l2_hash)
        else m.model);
       string_of_int m.cfg.n_cpus;
       Printf.sprintf "scale%d" m.scale;
       Run.policy_name c.policy;
       string_of_bool c.prefetch;
     ]
    @ (if c.seed = defaults.seed then [] else [ Printf.sprintf "seed%d" c.seed ])
    @ if c.cap = defaults.cap then [] else [ Printf.sprintf "cap%d" c.cap ])

let setup ?(obs = Pcolor_obs.Ctx.disabled) c =
  let d = Spec.find c.bench in
  {
    (Run.default_setup ~cfg:c.machine.cfg
       ~make_program:(fun () -> d.build ~scale:c.machine.scale ())
       ~policy:c.policy)
    with
    prefetch = c.prefetch;
    seed = c.seed;
    cap = c.cap;
    obs;
  }

let header ~provenance c =
  if sliced c.machine then invalid_arg "Cell.header: a tape header has no slicing";
  {
    Btrace.bench = c.bench;
    machine = c.machine.model;
    n_cpus = c.machine.cfg.n_cpus;
    scale = c.machine.scale;
    policy = Run.policy_name c.policy;
    prefetch = c.prefetch;
    seed = c.seed;
    cap = c.cap;
    provenance;
  }

let of_header (h : Btrace.header) =
  match
    (Run.policy_of_name h.policy, machine ~model:h.machine ~n_cpus:h.n_cpus ~scale:h.scale ())
  with
  | Error msg, _ | _, Error (_, msg) -> Error msg
  | Ok policy, Ok machine -> (
    try Ok (make ~prefetch:h.prefetch ~seed:h.seed ~cap:h.cap ~machine ~bench:h.bench ~policy ())
    with Invalid_argument msg -> Error msg)

(* Estimated simulation cost, for start order only: work scales with
   the CPU count (each CPU runs its share of every nest) and with the
   data set (Table 1).  Units are arbitrary. *)
let cost c = float_of_int c.machine.cfg.n_cpus *. (Spec.find c.bench).table1_mb

let runner ~obs ~progress ~jobs =
  let memo = Hashtbl.create 256 in
  let simulate c =
    let t0 = Unix.gettimeofday () in
    let report = (Run.run (setup ~obs:(obs ()) c)).report in
    progress c (Unix.gettimeofday () -. t0);
    report
  in
  fun cells ->
    let seen = Hashtbl.create 64 in
    let missing =
      List.filter
        (fun c ->
          let fresh = not (Hashtbl.mem memo c || Hashtbl.mem seen c) in
          if fresh then Hashtbl.add seen c ();
          fresh)
        cells
    in
    List.iter2 (Hashtbl.replace memo) missing
      (Pcolor_util.Pool.map_costliest_first ~jobs ~cost simulate missing);
    List.map (Hashtbl.find memo) cells
