(** Trial statistics for host-side performance measurement.

    Host timings on shared machines are noisy; a single sample regularly
    lands 10–40% away from the process's steady state.  This module
    turns a vector of repeated samples (e.g. the perf-ledger records of
    one section) into robust location/scale estimates — median and MAD
    — plus a nonparametric (sign-test / order-statistic) confidence
    interval for the median.

    Everything here is a pure function of the trial vector: same trials
    in, same summary out, bit for bit.  No randomness, no environment.

    The module also holds the aggregate helpers experiment reports use
    (arithmetic and geometric means, guarded ratios). *)

type summary = {
  n : int;  (** number of trials *)
  min_v : float;
  max_v : float;
  median : float;
  mad : float;  (** median absolute deviation from the median *)
  ci_lo : float;  (** lower end of the ≥95% median confidence interval *)
  ci_hi : float;  (** upper end; degrades to [(min, max)] for n < 6 *)
}

(** [median xs] is the sample median (mean of the middle pair for even
    [n]).  [xs] is not mutated.  Raises [Invalid_argument] on [[||]]. *)
val median : float array -> float

(** [mad ?center xs] is the median absolute deviation about [center]
    (default: [median xs]).  Raises [Invalid_argument] on [[||]]. *)
val mad : ?center:float -> float array -> float

(** [ci_ranks ~n] is the 1-based order-statistic rank pair [(k, n+1-k)]
    of the widest sign-test interval with two-sided coverage ≥ 95%:
    the largest [k ≥ 1] with [P(Binomial(n, 1/2) ≤ k-1) ≤ 0.025].
    For [n < 6] no interior rank reaches the coverage, so [k = 1]
    (the interval is the full range). *)
val ci_ranks : n:int -> int * int

(** [summarize xs] folds one trial vector into a {!summary}.
    Deterministic; raises [Invalid_argument] on [[||]]. *)
val summarize : float array -> summary

(** {2 Experiment aggregates} *)

(** [mean_of xs] is the arithmetic mean of a list (0 for []). *)
val mean_of : float list -> float

(** [geomean xs] is the geometric mean (the SPEC rating); raises
    [Invalid_argument] on non-positive inputs, 0 for []. *)
val geomean : float list -> float

(** [ratio a b] is [a /. b] with 0 on a zero denominator. *)
val ratio : float -> float -> float
