(** Phase detection over cycle-epoch timelines: parses the schema-v4
    ["timeline"] artifact section, extracts dense per-epoch series,
    finds phase transitions with a windowed mean-shift change-point
    detector, and renders the [pcolor timeline] /
    [pcolor explain --at] views. *)

(** A decoded timeline.  [rows] are delta rows in commit order, one per
    (CPU, epoch-crossing); [events] are context switches. *)
type t = {
  epoch_cycles : int;
  n_cpus : int;
  columns : string array;
  rows : int array array;
  events : (int * int * int) array;  (** time, from-asid, to-asid *)
}

(** [of_artifact v] finds and decodes the ["timeline"] section of a
    full run/mix artifact. *)
val of_artifact : Pcolor_obs.Json.t -> (t, string) result

(** [col t name] is the column's index, if present. *)
val col : t -> string -> int option

(** [miss_series ?job t] sums the [l2_miss.*] columns per epoch. *)
val miss_series : ?job:int -> t -> float array

(** [conflict_series ?job t] sums the per-color conflict-pressure
    columns per epoch. *)
val conflict_series : ?job:int -> t -> float array

(** [jobs t] is the sorted set of job ids appearing in the rows. *)
val jobs : t -> int list

(** A detected phase transition at an epoch boundary: the series mean
    shifts from [before] to [after] with significance [score] (mean
    shift over pooled in-window deviation). *)
type change = { epoch : int; score : float; before : float; after : float }

(** [detect ?window ?threshold s] finds change points in [s]: epoch
    boundaries where the means of the [window] (default 4) epochs on
    either side differ by at least [threshold] (default 2.0) pooled
    deviations; local maxima at least [window] apart, ascending by
    epoch.  Raises [Invalid_argument] on a non-positive window. *)
val detect : ?window:int -> ?threshold:float -> float array -> change list

type segment = { seg_from : int; seg_to : int; seg_mean : float }

(** [render t] is the [pcolor timeline] view: sparklines for the
    miss/conflict/stall series, detected phases, the per-job split and
    the context-switch log. *)
val render : t -> string

(** [render_window t ~lo ~hi] explains epochs [lo..hi] (inclusive):
    aggregate counters, miss-class split, per-job split, hottest
    conflict colors — the [pcolor explain --at=LO-HI] view.  Raises
    [Invalid_argument] on a bad range. *)
val render_window : t -> lo:int -> hi:int -> string
