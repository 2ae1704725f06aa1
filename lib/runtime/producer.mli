(** Reference batches filled ahead of the machine that consumes them.

    A walker's records depend only on its nest, its CPU's iteration
    range and the prefetch plan, never on machine state, so generation
    can run beside simulation.  Each domain owns one producer: a ring of
    two {!Pcolor_comp.Walker.batch} slots.  The engine hands it one job
    per nest (the nest's walkers in CPU order) and takes the batches
    back in the same order, so the consumer sees exactly the batch
    sequence a sequential fill would produce.

    On the main domain, a helper domain fills the ring while the
    consumer simulates the previous batch.  It is spawned on the first
    job that can use it, sleeps between jobs and leaves after a second
    without one; the next job spawns it again.  Everywhere else the
    consumer fills each slot itself, in the same loop: on any other
    domain, inside a {!Pcolor_util.Pool.map} that spawned workers
    (their cores are taken), and when the process may use one core
    only. *)

type t

(** [get ()] is the calling domain's producer. *)
val get : unit -> t

(** [start t walkers] begins a job: fill [walkers] in array order, each
    until exhausted.  Every walker must be unfinished, and the previous
    job must have been consumed to its end or {!cancel}led.  The helper
    only runs {!Pcolor_comp.Walker.fill_runs} on them. *)
val start : t -> Pcolor_comp.Walker.t array -> unit

(** [next t] is the job's next filled batch: the helper's (waiting for
    it if need be) or one the consumer fills now.  It stays valid until
    {!release}. *)
val next : t -> Pcolor_comp.Walker.batch

(** [ends_walker t] is true when the batch of the last {!next} is its
    walker's final one. *)
val ends_walker : t -> bool

(** [release t] hands the batch of the last {!next} back to the ring. *)
val release : t -> unit

(** [cancel t] abandons the current job, waiting until the helper has
    stopped touching its walkers and batches.  Call it before letting an
    exception raised mid-job propagate. *)
val cancel : t -> unit
