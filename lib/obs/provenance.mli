(** Run provenance: who/where/what identification stamped into every
    machine-readable artifact so numbers stay comparable across
    machines and PRs. *)

(** Artifact schema version; bump when the JSON layout of run
    artifacts or bench sections changes incompatibly. *)
val schema_version : int

type t = {
  timestamp : string;  (** ISO-8601 UTC *)
  hostname : string;
  git : string option;  (** {!git_describe}, if available *)
  scale : int option;  (** PCOLOR_SCALE-style divisor *)
  jobs : int option;  (** domain-pool width *)
  seed : int option;
  config_hash : string option;  (** digest of the machine configuration *)
}

(** [collect ?scale ?jobs ?seed ?config_hash ()] stamps the current
    time, host, and git revision (best effort: [git] is [None] when the
    binary runs outside a repository). *)
val collect : ?scale:int -> ?jobs:int -> ?seed:int -> ?config_hash:string -> unit -> t

(** [git_describe ()] is [git describe --always], suffixed [-dirty]
    when a tracked file outside the perf ledger and the root-level
    [BENCH_*.json] artifacts has changed (see {!dirty_of_status}), if the
    binary runs inside a repository with git on the path ([pcolor
    version] prints it). *)
val git_describe : unit -> string option

(** [dirty_of_status lines] classifies [git status --porcelain] output:
    true when some changed path is neither [PERF_LEDGER.jsonl] nor a
    [BENCH_*.json] at the repository root.  Those two are what bench
    and [perf ingest] runs write, so they never make a stamp dirty. *)
val dirty_of_status : string list -> bool

(** [hash_value v] is a short stable digest of any marshalable value —
    used to fingerprint machine configurations. *)
val hash_value : 'a -> string

(** [to_json t] includes [schema_version] alongside the fields. *)
val to_json : t -> Json.t
