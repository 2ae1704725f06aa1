(** Static scheduling: which depth-0 iterations of a nest each CPU
    executes.

    SUIF schedules parallel loops statically to keep overheads low and —
    crucially for CDPC — to make each processor's access pattern
    predictable (§5.1).  Suppressed and sequential nests execute entirely
    on the master (CPU 0) while the slaves idle. *)

(** [master] is the CPU that executes non-parallel work. *)
let master = 0

(** [range nest ~n_cpus ~cpu] is the half-open depth-0 iteration
    interval CPU [cpu] executes.  For parallel nests this applies the
    nest's partitioning; for suppressed/sequential nests the master gets
    everything and the slaves get the empty interval. *)
let range (nest : Ir.nest) ~n_cpus ~cpu =
  let trip = nest.bounds.(0) in
  match nest.kind with
  | Parallel { policy; direction } -> Partition.range policy direction ~n_cpus ~cpu ~trip
  | Suppressed | Sequential -> if cpu = master then (0, trip) else (0, 0)

(** [validate_coverage nest ~n_cpus] checks that per-CPU ranges tile
    [\[0, trip)] exactly — the property tests' workhorse.  Returns [true]
    when coverage is exact and disjoint. *)
let validate_coverage nest ~n_cpus =
  let trip = nest.Ir.bounds.(0) in
  let hit = Array.make trip 0 in
  for cpu = 0 to n_cpus - 1 do
    let lo, hi = range nest ~n_cpus ~cpu in
    for i = lo to hi - 1 do
      hit.(i) <- hit.(i) + 1
    done
  done;
  Array.for_all (fun c -> c = 1) hit
