(** Static scheduling: which depth-0 iterations each CPU executes.
    Parallel nests apply their partition; suppressed and sequential
    nests run entirely on the master. *)

(** [master] is the CPU executing non-parallel work (0). *)
val master : int

(** [range nest ~n_cpus ~cpu] is the half-open depth-0 interval CPU
    [cpu] executes. *)
val range : Ir.nest -> n_cpus:int -> cpu:int -> int * int

(** [validate_coverage nest ~n_cpus] checks the per-CPU ranges tile
    [\[0, trip)] exactly. *)
val validate_coverage : Ir.nest -> n_cpus:int -> bool
