(** One-shot parallel map over a list of independent work units (stdlib
    [Domain] + [Atomic] only): each call spawns its worker domains, runs
    every task and joins them before returning.

    With [jobs <= 1] tasks run inline, in list order — byte-identical to
    the sequential program, the [PCOLOR_JOBS=1] escape hatch.  Otherwise
    workers claim tasks in list order, so a caller that sorts its tasks
    costliest-first keeps that start order. *)

(** [default_jobs ()] is [PCOLOR_JOBS] if set, otherwise
    [Domain.recommended_domain_count ()].  Raises [Failure] (naming the
    offending value) when [PCOLOR_JOBS] is set but not a positive
    integer. *)
val default_jobs : unit -> int

(** [run_all ~jobs tasks] runs every task to completion on up to [jobs]
    domains.  The first task exception is re-raised after every domain
    has been joined. *)
val run_all : jobs:int -> (unit -> unit) list -> unit

(** [parallel ()] is true while the calling domain runs tasks of a
    {!run_all} that spawned worker domains: every core it asked for is
    busy, so work should not fan out further. *)
val parallel : unit -> bool

(** [map ~jobs f xs] is [List.map f xs] computed as {!run_all}; results
    keep list order regardless of scheduling. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
