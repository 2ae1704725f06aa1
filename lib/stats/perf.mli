(** Perf-ledger analysis: the logic behind [pcolor perf ingest],
    [perf check] and [perf history].

    perfbench ([perfbench/], declared by [BENCHMARK.json]) is the
    repository's one host timer; it prints one JSON result line per run
    and writes nothing durable.  [perf ingest] turns that line into
    ledger records, one per metric, under the section
    ["<workload>/<metric>"] and the current git stamp.  [perf check]
    compares two stamps of the ledger against the bounds
    [BENCHMARK.json] declares, the benchmark's own no-regression
    rule. *)

(** One metric of [BENCHMARK.json]. *)
type metric = {
  name : string;  (** e.g. ["refs_per_s"], ["memsim.consume_s"] *)
  unit_name : string;
  higher_better : bool;  (** ["better": "higher"] *)
  bound : float option;
      (** the tolerated relative worsening of an [end_to_end] metric;
          [None] for a [per_layer] one, which never fails a check *)
}

(** The parts of [BENCHMARK.json] the ledger tools read. *)
type spec = {
  workloads : string list;
  metrics : metric list;  (** [end_to_end] first, then [per_layer] *)
}

(** [spec_of_json v] decodes [BENCHMARK.json]: [workloads] and
    [end_to_end] are required (every end-to-end metric with a numeric
    [bound]), [per_layer] is optional. *)
val spec_of_json : Pcolor_obs.Json.t -> (spec, string) result

(** [section_names spec] is every ledger section the benchmark can
    produce: workloads × metrics, ["<workload>/<metric>"], in
    declaration order.  [perf history] shows these by default. *)
val section_names : spec -> string list

(** [ingest spec ~workload ~provenance v] turns one perfbench result
    line into ledger records: one per entry of its [metrics] object,
    with section ["<workload>/<metric>"], the line's unit, [median] =
    [value] and [trials] = [[|value|]], stamped with [provenance].
    [Error] (one line) when [workload] is not in [spec], [v] is not an
    object, [correct] is not [true], or [metrics] is missing, empty or
    malformed. *)
val ingest :
  spec ->
  workload:string ->
  provenance:Pcolor_obs.Provenance.t ->
  Pcolor_obs.Json.t ->
  (Pcolor_obs.Ledger.record list, string) result

type verdict = {
  section : string;
  metric : metric;
  base : float;  (** median of the base stamp's samples *)
  fresh : float;  (** median of the fresh stamp's samples *)
  n_base : int;
  n_fresh : int;
  worse_by : float;
      (** relative worsening in the metric's direction: [0.3] = 30%
          worse, negative = better *)
  ok : bool;  (** [worse_by <= bound]; always true for per-layer metrics *)
}

(** [check spec records ~base ~fresh] compares, for every section of
    {!section_names} recorded at both git stamps, the median of each
    stamp's samples (one sample per ingested record).  [Error] (one
    line) when a stamp has no record in [records] or the two share no
    such section. *)
val check :
  spec ->
  Pcolor_obs.Ledger.record list ->
  base:string ->
  fresh:string ->
  (verdict list, string) result

(** [failures verdicts] names the sections that are not [ok]. *)
val failures : verdict list -> string list

(** [render_check ~base ~fresh verdicts] is the human report: one line
    per section with both medians, the relative change and, for
    end-to-end metrics, the bound and PASS/FAIL. *)
val render_check : base:string -> fresh:string -> verdict list -> string

(** [render_history ?section ?known records ~skipped] renders
    per-section trend sparklines from ledger records (file order =
    time order): one strip per section, latest median ± MAD and its
    git stamp.  [section] filters to one section; [known] filters to a
    section whitelist (e.g. {!section_names}), summarizing — never
    silently dropping — records outside it; [skipped] is the
    corrupt-line count from {!Pcolor_obs.Ledger.load}.  When a filter
    leaves nothing, the report says what the ledger does hold instead
    of rendering empty. *)
val render_history :
  ?section:string ->
  ?known:string list ->
  Pcolor_obs.Ledger.record list ->
  skipped:int ->
  string
