(** Per-run observability context: the single handle threaded through
    machine, kernel and engine.  [disabled] (the default everywhere)
    reduces every instrumented site to one branch, preserving the
    byte-identical-output and negligible-overhead contract of
    DESIGN §8/§9. *)

type t = {
  metrics : Metrics.t option;  (** per-run registry, snapshotted after the run *)
  trace : Trace.buffer option;  (** private event buffer (own trace pid) *)
  attrib : Attrib.t option;  (** conflict-attribution engine (miss path only) *)
  sampler : Sampler.t option;  (** cycle-epoch counter timeline ([--timeline]) *)
  prof : Prof.t option;  (** host-side self-profiler ([--prof]) *)
  sample : bool;  (** enable per-event histograms on the simulator hot path *)
}

(** Observability off: no registry, no trace, no attribution, no
    sampling. *)
val disabled : t

(** [create ?metrics ?trace ?attrib ?sampler ?prof ?sample ()] builds a
    context; [sample] defaults to true when [PCOLOR_OBS_SAMPLE] is set
    to [1]/[true]/[on]/[yes] — the opt-in knob for per-reference
    signals. *)
val create :
  ?metrics:Metrics.t ->
  ?trace:Trace.buffer ->
  ?attrib:Attrib.t ->
  ?sampler:Sampler.t ->
  ?prof:Prof.t ->
  ?sample:bool ->
  unit ->
  t

(** [metrics t] / [trace t] / [attrib t] / [sampler t] accessors. *)
val metrics : t -> Metrics.t option

val trace : t -> Trace.buffer option

val attrib : t -> Attrib.t option

val sampler : t -> Sampler.t option

val prof : t -> Prof.t option

(** [flush t] drains the trace buffer to its sink, if any. *)
val flush : t -> unit
