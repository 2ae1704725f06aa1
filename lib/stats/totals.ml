(** Weighted accumulation of simulation statistics.

    The representative-execution-window technique (§3.2) simulates each
    steady-state phase a small number of times and weights the measured
    deltas by the phase's real occurrence count.  [Totals] is the flat
    record those weighted deltas accumulate into; the engine snapshots it
    from the machine at phase boundaries, subtracts, applies the bus
    contention stretch [f] to the stretched counters, multiplies by the
    phase weight, and folds into the run's accumulator. *)

module M = Pcolor_memsim.Machine

type t = {
  n_cpus : int;
  counters : float array; (* Machine.counters order *)
  time : float array; (* per-CPU cycle counters *)
  ov_imbalance : float array;
  ov_sequential : float array;
  ov_suppressed : float array;
  ov_sync : float array;
  mutable wall : float; (* accumulated weighted wall-clock cycles *)
}

(** [create ~n_cpus] is a zeroed accumulator. *)
let create ~n_cpus =
  {
    n_cpus;
    counters = Array.make (Array.length M.counters) 0.0;
    time = Array.make n_cpus 0.0;
    ov_imbalance = Array.make n_cpus 0.0;
    ov_sequential = Array.make n_cpus 0.0;
    ov_suppressed = Array.make n_cpus 0.0;
    ov_sync = Array.make n_cpus 0.0;
    wall = 0.0;
  }

(** [get t name] is the counter column [name]. *)
let get t name = t.counters.(M.column name)

(** [snapshot machine ov] reads the machine's cumulative statistics and
    the overhead accumulators into an absolute [t].  Each column is the
    machine-wide integer total converted once: every partial sum stays
    far below 2{^53}, so this equals summing the per-CPU values as
    floats. *)
let snapshot machine (ov : Overheads.t) =
  let n = M.n_cpus machine in
  let t = create ~n_cpus:n in
  Array.iteri (fun i _ -> t.counters.(i) <- float_of_int (M.total machine i)) t.counters;
  for cpu = 0 to n - 1 do
    t.time.(cpu) <- float_of_int (M.cpu_time machine ~cpu);
    t.ov_imbalance.(cpu) <- ov.imbalance.(cpu);
    t.ov_sequential.(cpu) <- ov.sequential.(cpu);
    t.ov_suppressed.(cpu) <- ov.suppressed.(cpu);
    t.ov_sync.(cpu) <- ov.sync.(cpu)
  done;
  t

(** [accumulate ~into ~start ~fin ~f ~weight] folds the delta
    [fin - start] into the accumulator: the table's stretched counters
    are multiplied by the contention factor [f]; per-CPU time deltas
    gain the stretched extra stall; everything is multiplied by the
    phase [weight].  The weighted wall-clock is the maximum stretched
    per-CPU delta. *)
let accumulate ~into ~start ~fin ~f ~weight =
  let d a b = (a -. b) *. weight in
  Array.iteri
    (fun i (k : M.counter) ->
      let v = d fin.counters.(i) start.counters.(i) in
      into.counters.(i) <- into.counters.(i) +. if k.stretched then v *. f else v)
    M.counters;
  let wall_delta = ref 0.0 in
  for cpu = 0 to into.n_cpus - 1 do
    (* The engine already added the stretched extra stall to the raw CPU
       clocks, so the time delta is final. *)
    let dt = fin.time.(cpu) -. start.time.(cpu) in
    into.time.(cpu) <- into.time.(cpu) +. (dt *. weight);
    if dt > !wall_delta then wall_delta := dt;
    into.ov_imbalance.(cpu) <-
      into.ov_imbalance.(cpu) +. d fin.ov_imbalance.(cpu) start.ov_imbalance.(cpu);
    into.ov_sequential.(cpu) <-
      into.ov_sequential.(cpu) +. d fin.ov_sequential.(cpu) start.ov_sequential.(cpu);
    into.ov_suppressed.(cpu) <-
      into.ov_suppressed.(cpu) +. d fin.ov_suppressed.(cpu) start.ov_suppressed.(cpu);
    into.ov_sync.(cpu) <- into.ov_sync.(cpu) +. d fin.ov_sync.(cpu) start.ov_sync.(cpu)
  done;
  into.wall <- into.wall +. (!wall_delta *. weight)

(** [total_mem_stall t] sums the table's [mem_stall] columns in table
    order, each run of per-class columns folded from 0.0 into one term
    first: [onchip +. Σclass +. late +. full], the association every
    committed artifact was produced with. *)
let total_mem_stall t =
  let module C = Pcolor_memsim.Mclass in
  let last = List.length C.all - 1 in
  let sum = ref 0.0 and by_class = ref 0.0 in
  Array.iteri
    (fun i (k : M.counter) ->
      if k.mem_stall then
        match k.cls with
        | None -> sum := !sum +. t.counters.(i)
        | Some c ->
          by_class := !by_class +. t.counters.(i);
          if C.index c = last then begin
            sum := !sum +. !by_class;
            by_class := 0.0
          end)
    M.counters;
  !sum

(** [sum_time t] is the combined (summed over CPUs) cycle count —
    Figure 2's combined-execution-time metric. *)
let sum_time t = Array.fold_left ( +. ) 0.0 t.time
