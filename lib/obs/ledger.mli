(** Append-only JSONL performance ledger.

    [pcolor perf ingest] appends one provenance-stamped record per
    perfbench metric (section ["<workload>/<metric>"], e.g.
    ["sweep/refs_per_s"]), so the repository accumulates a cross-PR
    perf trajectory instead of overwriting a single spot sample.
    [pcolor perf check] compares the records of two git stamps.  The
    file is one compact JSON object per line, append-only by
    construction (writers never rewrite earlier lines).  Records from
    the retired bench-harness timers (sections such as
    ["single_domain"] or ["mix"]) keep the same schema and still load.

    The parser is tolerant: a corrupt or half-written line (a crashed
    writer, a merge artifact) is skipped and counted, never fatal —
    losing one point of a trajectory beats refusing to read it. *)

type record = {
  section : string;  (** e.g. ["sweep/refs_per_s"] *)
  unit_name : string;  (** what [median] measures, e.g. ["refs/s"] *)
  median : float;
  mad : float;
  ci_lo : float;
  ci_hi : float;
  trials : float array;  (** the raw trial vector (may be empty in old records) *)
  git : string;  (** [git describe] at measurement time; ["unknown"] if absent *)
  timestamp : string;  (** ISO-8601 UTC *)
  hostname : string;
  scale : int;
  jobs : int;
  note : string;  (** free-form; [""] for live records *)
}

(** [make ~section ~unit_name ~summary ~trials ~provenance ?note ()]
    builds a record from a trial {!Stat.summary} and a provenance
    stamp. *)
val make :
  section:string ->
  unit_name:string ->
  summary:Stat.summary ->
  trials:float array ->
  provenance:Provenance.t ->
  ?note:string ->
  unit ->
  record

val to_json : record -> Json.t

(** [of_json v] decodes one record; [Error] on a non-object or a
    missing/mistyped [section]/[median] (other fields default). *)
val of_json : Json.t -> (record, string) result

(** [append ~path records] appends one compact JSON line per record,
    creating the file if needed.  Existing content is never touched. *)
val append : path:string -> record list -> unit

(** [load ~path] reads the ledger in file order, skipping lines that
    fail to parse or decode; returns [(records, skipped_lines)].
    A missing file is an empty ledger, not an error. *)
val load : path:string -> record list * int
