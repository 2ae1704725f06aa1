(** One run of a built-in benchmark, as the paper's evaluation grid
    (Figures 2 and 6-9, Table 2) and its hashed-LLC extension name it:
    a {!machine} (model × CPUs × scale × external-cache slicing) plus
    benchmark × policy × prefetch × seed × window cap.  A cell names its
    run once — its artifact key, its {!Run.setup} and its tape header —
    and a {!runner} simulates each distinct cell once however many grids
    ask for it. *)

(** A checked machine: its {!Pcolor_memsim.Config.models} name, the
    divisor of its caches and of its benchmark's data set, and its
    configuration. *)
type machine = private { model : string; scale : int; cfg : Pcolor_memsim.Config.t }

(** The input a machine is refused for, so that a front end can name
    its own flag. *)
type axis = Model | Cpus | Scale | Slicing

(** [machine ?slices ?hash ~model ~n_cpus ~scale ()] is the
    {!Pcolor_memsim.Config.models} machine [model] with [n_cpus] CPUs
    and its caches shrunk by [scale], then (after scaling, which fixes
    the color count the hash must divide) its external cache split into
    [slices] slices routed by [hash] (DESIGN §16; default one slice, the
    identity) and validated again.  [Error] names an unknown model, a
    CPU count outside 1..{!Pcolor_memsim.Config.max_cpus}, a scale
    outside {!Pcolor_workloads.Gen.scales} or leaving the model fewer
    than two colors, or an impossible slicing. *)
val machine :
  ?slices:int ->
  ?hash:Pcolor_memsim.Ahash.spec ->
  model:string ->
  n_cpus:int ->
  scale:int ->
  unit ->
  (machine, axis * string) result

type t = private {
  bench : string;
  machine : machine;
  policy : Run.policy_choice;
  prefetch : bool;
  seed : int;
  cap : int;
}

(** [make ?prefetch ?seed ?cap ~machine ~bench ~policy ()] is the cell
    (no prefetch, and {!Run.default_setup}'s seed and cap, by default).
    Raises [Invalid_argument] (with {!Pcolor_workloads.Spec.find}'s
    message) for an unknown benchmark. *)
val make :
  ?prefetch:bool ->
  ?seed:int ->
  ?cap:int ->
  machine:machine ->
  bench:string ->
  policy:Run.policy_choice ->
  unit ->
  t

(** [key c] names every field that changes [c]'s report, e.g.
    ["swim/sgi-2way/4/scale4/cdpc/false"]: a sliced machine is written
    ["sgi+2xsandybridge"], and a seed or cap other than the default
    adds ["/seedN"] or ["/capN"].  It keys the cell's entry in a harness
    section artifact. *)
val key : t -> string

(** [setup ?obs c] is the cell's run: {!Run.default_setup} on [c]'s
    machine with the benchmark built at its scale, and [c]'s prefetch,
    seed and cap, observed by [obs] (default
    {!Pcolor_obs.Ctx.disabled}). *)
val setup : ?obs:Pcolor_obs.Ctx.t -> t -> Run.setup

(** [header ~provenance c] is the header of a tape recording [c].
    Raises [Invalid_argument] for a sliced machine, which a header
    cannot name. *)
val header : provenance:string -> t -> Btrace.header

(** [of_header h] is the cell a tape with header [h] recorded.  [Error]
    says why no cell has [h]'s model, CPUs, scale, benchmark or
    policy. *)
val of_header : Btrace.header -> (t, string) result

(** [runner ~obs ~progress ~jobs] is a memoized function from a
    list of cells to their reports, in list order.  The cells it has
    not simulated yet run first on up to [jobs] domains, each distinct
    one once, costliest first ({!Pcolor_util.Pool.map_costliest_first}
    by CPUs × the benchmark's Table-1 data-set size); a cell listed
    twice, or asked for again by a later call, returns the physically
    same report.  [obs ()] is each simulation's observability context;
    [progress c seconds] is called on the simulating domain as each
    cell finishes.  Call the function from one domain at a time. *)
val runner :
  obs:(unit -> Pcolor_obs.Ctx.t) ->
  progress:(t -> float -> unit) ->
  jobs:int ->
  t list ->
  Pcolor_stats.Report.t list
