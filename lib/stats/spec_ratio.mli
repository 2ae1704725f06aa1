(** Synthetic SPEC95fp-style ratings (Table 2, §7): per-benchmark
    reference/measured ratios and their geometric mean.  Absolute SPEC
    numbers are testbed-specific; only ratios between policies are
    reproduction targets. *)

(** [ratio ~ref_cycles ~measured_cycles] is one benchmark's rating. *)
val ratio : ref_cycles:float -> measured_cycles:float -> float

(** [rating ratios] is the suite rating (geometric mean; 0 for []). *)
val rating : float list -> float

(** [make_references base_runs] fixes per-benchmark reference cycles
    from [(benchmark, uniprocessor_wall_cycles)] baselines, preserving
    the SPEC95 relative weights; the returned lookup raises
    [Invalid_argument] for unknown benchmarks. *)
val make_references : (string * float) list -> string -> float
