(** One-shot parallel map over a list of independent work units (stdlib
    [Domain] + [Atomic] only): each call spawns its worker domains, runs
    every task and joins them before returning.

    With [jobs <= 1] tasks run inline, in start order — for {!map} list
    order, byte-identical to the sequential program, the
    [PCOLOR_JOBS=1] escape hatch.  Otherwise workers claim tasks in
    start order. *)

(** [default_jobs ()] is [PCOLOR_JOBS] if set, otherwise
    [Domain.recommended_domain_count ()].  Raises [Failure] (naming the
    offending value) when [PCOLOR_JOBS] is set but not a positive
    integer. *)
val default_jobs : unit -> int

(** [parallel ()] is true while the calling domain runs tasks of a
    {!map} that spawned worker domains: every core it asked for is
    busy, so work should not fan out further. *)
val parallel : unit -> bool

(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains; results keep list order regardless of scheduling.  The
    first exception [f] raises is re-raised after every domain has been
    joined. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_costliest_first ~jobs ~cost f xs] is [map ~jobs f xs] with the
    tasks started in decreasing [cost] (ties in list order): the
    longest-processing-time-first order, so an expensive task listed
    last does not run alone at the tail while the other domains idle.
    Results keep list order. *)
val map_costliest_first : jobs:int -> cost:('a -> float) -> ('a -> 'b) -> 'a list -> 'b list
