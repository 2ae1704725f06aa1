(** Synthetic SPEC95fp-style ratings (Table 2, §7).

    SPEC95fp expresses each benchmark as the ratio of a fixed reference
    time to the measured time, and the suite rating as the geometric mean
    of the ratios.  Our simulated "times" are per-representative-window
    cycle counts on a scaled machine, so absolute SPEC numbers are
    meaningless — but ratios {e between policies} are exactly the paper's
    claims (+8% over bin hopping, +20% over page coloring at 8 CPUs).

    We therefore compute ratings against per-benchmark reference times
    chosen as [ref_factor × (uniprocessor page-coloring wall time)], with
    the SPEC95 reference machine's per-benchmark time ratios preserved so
    the geometric-mean weighting matches the real suite's. *)

(** The SPEC95 reference times (seconds on the reference machine), used
    only for their relative weights. *)
let spec95_reference_seconds =
  [
    ("tomcatv", 3700.0);
    ("swim", 8600.0);
    ("su2cor", 1400.0);
    ("hydro2d", 2400.0);
    ("mgrid", 2500.0);
    ("applu", 2200.0);
    ("turb3d", 4100.0);
    ("apsi", 2100.0);
    ("fpppp", 9600.0);
    ("wave5", 3000.0);
  ]

(** [reference_of name] looks up a benchmark's reference weight; unknown
    benchmarks weigh 1000.0. *)
let reference_of name =
  match List.assoc_opt name spec95_reference_seconds with Some s -> s | None -> 1000.0

(** [ratio ~ref_cycles ~measured_cycles] is one benchmark's rating. *)
let ratio ~ref_cycles ~measured_cycles = Pcolor_obs.Stat.ratio ref_cycles measured_cycles

(** [rating ratios] is the suite rating: the geometric mean.  Empty input
    rates 0. *)
let rating ratios = Pcolor_obs.Stat.geomean ratios

(** [make_references base_runs] fixes the per-benchmark reference cycle
    counts from a list of [(benchmark, uniprocessor_wall_cycles)]
    baseline measurements: each reference is the baseline scaled so that
    benchmark ratings start near the SPEC95 relative weights.  Returns a
    lookup function. *)
let make_references base_runs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, cycles) -> Hashtbl.replace tbl name (cycles *. (reference_of name /. 1000.0)))
    base_runs;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None -> invalid_arg ("Spec_ratio: no reference for " ^ name)
