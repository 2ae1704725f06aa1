(** Post-run audit enrichment: turns the raw conflict-attribution
    counters and the colorer's placement provenance into the artifact's
    machine-readable audit sections ([pcolor explain] renders them,
    [pcolor diff] compares them). *)

(** [attribution_json ~kernel ~program ~page_size attrib] is the
    artifact's ["attribution"] section: per-class totals, per-color
    histograms, hottest eviction pairs / frames / cache sets, each
    frame enriched with color, virtual page and owning array where the
    page table still maps it.  Hot lists are capped (caps recorded
    alongside the full cardinalities). *)
val attribution_json :
  kernel:Pcolor_vm.Kernel.t ->
  program:Pcolor_comp.Ir.program ->
  page_size:int ->
  Pcolor_obs.Attrib.t ->
  Pcolor_obs.Json.t

(** [attribution_json_spaces ~spaces ~page_size attrib] is the same
    section joined across several address spaces (one kernel × program
    pair per multiprogrammed job): each frame is resolved against every
    page table in order. *)
val attribution_json_spaces :
  spaces:(Pcolor_vm.Kernel.t * Pcolor_comp.Ir.program) list ->
  page_size:int ->
  Pcolor_obs.Attrib.t ->
  Pcolor_obs.Json.t

(** [decisions_json ?hash info] is the artifact's
    ["coloring_decisions"] section: ablation switches, step-2 set
    order, placed segments with step-2/3 ranks and step-4 rotations,
    and per-page color assignments with the step that produced each.
    [hash] (hash-aware CDPC) names the slice-hash inversion and
    suffixes every [chosen_by] entry. *)
val decisions_json : ?hash:string -> Pcolor_cdpc.Colorer.info -> Pcolor_obs.Json.t
