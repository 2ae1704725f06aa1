(** Text renderer for the artifact's audit sections ([pcolor explain]):
    top conflicting page-pair tables, per-array miss-class stacked
    bars, a color-occupancy heatmap, and the §5.2 decision log.
    Consumes a parsed artifact; missing sections degrade to a note. *)

(** [render ?top ?page_rows artifact] is the full report.  [top]
    (default 10) bounds the pair/set tables; [page_rows] (default 16)
    bounds the per-page decision listing. *)
val render : ?top:int -> ?page_rows:int -> Pcolor_obs.Json.t -> string

(** [per_array_rollup artifact] aggregates the attribution hot frames
    by owning array into a stable
    [{"per_array": {array: {class: count}}}] shape that {!Delta.diff}
    can pair across runs. *)
val per_array_rollup : Pcolor_obs.Json.t -> Pcolor_obs.Json.t
