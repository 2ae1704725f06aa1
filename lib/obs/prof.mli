(** Host-side self-profiler: where does the {e simulator process} spend
    its own wall-clock and allocation?

    This is observability of the tool, not of the simulated machine: it
    brackets the engine's coarse phases — walker fill, consume/retire,
    reclaim, artifact serialization — with [Unix.gettimeofday] and
    [Gc.quick_stat] deltas, so a perf PR can see {e which} phase moved
    before reaching for a real profiler.

    Same contract as [Ctx]: off by default, and when off the hot path
    pays one [option] branch and allocates nothing — simulated output is
    byte-identical with the profiler on or off.  When on, phase starts
    and stops may allocate freely (the run is being measured for a
    report, not replayed for identity).  Phases may nest across kinds
    (reclaim fires inside consume); a phase must not nest inside
    itself. *)

type phase = Fill | Consume | Reclaim | Serialize

type t

val create : unit -> t

(** [start t p] stamps the wall-clock and GC counters for [p].
    Unbalanced or self-nested starts make that phase's numbers
    garbage, not an exception — the profiler never aborts a run. *)
val start : t -> phase -> unit

(** [stop t p] accumulates the deltas since the matching {!start}. *)
val stop : t -> phase -> unit

type row = {
  name : string;
  calls : int;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(** [rows t] is one row per phase that was entered at least once, in
    fixed phase order. *)
val rows : t -> row list

(** [render t] is a plain-text table of {!rows} plus a share-of-total
    column (percent of the summed bracketed wall time). *)
val render : t -> string
