(** One experiment of the paper's evaluation grid (Figures 2 and 6-9,
    Table 2): benchmark × machine model × CPUs × scale × policy ×
    prefetch.  A cell names its run once — its artifact key and its
    {!Run.setup} — and a {!runner} simulates each distinct cell once
    however many grids ask for it. *)

type t

(** [make ?prefetch ~scale ~bench ~machine ~n_cpus ~policy ()] is the
    cell ([prefetch] defaults to false).  [bench] is a
    {!Pcolor_workloads.Spec} name and [machine] a
    {!Pcolor_memsim.Config.models} name.  Raises [Invalid_argument] for
    an unknown benchmark or machine, or a scale the machine's caches
    cannot be shrunk by (fewer than two colors left). *)
val make :
  ?prefetch:bool ->
  scale:int ->
  bench:string ->
  machine:string ->
  n_cpus:int ->
  policy:Run.policy_choice ->
  unit ->
  t

(** [key c] is ["bench/machine/cpus/policy/prefetch"], e.g.
    ["swim/sgi-2way/4/cdpc/false"]: the [key] of the cell's entry in a
    harness section artifact.  The scale is the artifact's, not the
    key's. *)
val key : t -> string

(** [setup ?obs c] is the cell's run: the machine model at [c]'s CPU
    count shrunk by its scale, the benchmark built at the same scale,
    {!Run.default_setup} otherwise, with [c]'s prefetch and [obs]
    (default {!Pcolor_obs.Ctx.disabled}). *)
val setup : ?obs:Pcolor_obs.Ctx.t -> t -> Run.setup

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
