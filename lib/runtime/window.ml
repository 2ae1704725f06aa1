(** Representative execution windows (§3.2).

    Simulating SPEC95fp to completion under a detailed memory model is
    infeasible (the paper estimates over a year of simulation); instead
    the steady state is decomposed into phases, each phase is simulated a
    few times, and per-phase statistics are weighted by the phase's real
    occurrence count.  The first pass through the phase sequence is the
    warm-up and is discarded, eliminating transient effects such as cold
    misses and page faults. *)

type step = {
  phase_idx : int;
  simulate : int; (* occurrences to actually simulate *)
  weight : float; (* real occurrences / simulated occurrences *)
}

(** [plan ?cap program] builds the measurement schedule: each steady
    phase is simulated [min cap occurrences] times with the matching
    weight.  [cap] defaults to 2. *)
let plan ?(cap = 2) (p : Pcolor_comp.Ir.program) =
  if cap <= 0 then invalid_arg "Window.plan: cap must be positive";
  List.map
    (fun (phase_idx, occurrences) ->
      let simulate = min cap occurrences in
      { phase_idx; simulate; weight = float_of_int occurrences /. float_of_int simulate })
    p.steady

(** [warmup_plan program] is one pass over each steady phase, used to
    warm caches and fault in pages before measurement. *)
let warmup_plan (p : Pcolor_comp.Ir.program) =
  List.map (fun (phase_idx, _) -> { phase_idx; simulate = 1; weight = 0.0 }) p.steady
