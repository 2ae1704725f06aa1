(** Diagnostic logging via the [logs] library.

    All pcolor libraries log through {!src}; nothing is printed unless
    {!init} finds [PCOLOR_LOG] set (so default runs stay byte-identical
    and pay only a level check per log point).  Levels:
    [PCOLOR_LOG=debug|info|warn|error|quiet].

    Every emitted line is prefixed ["[<run-id> #<seq>] <level>:"] — a
    stable per-process run id plus a monotonic sequence number — so
    interleaved multi-job logs can be correlated with each other and
    with timeline epochs. *)

(** The shared log source ("pcolor"). *)
val src : Logs.src

(** [init ()] reads [PCOLOR_LOG] and, when set, installs a stderr
    reporter at the requested level.  Unknown level strings warn on
    stderr and default to [info].  Call once from each executable's
    entry point; a no-op when the variable is unset. *)
val init : unit -> unit
