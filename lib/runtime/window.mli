(** Representative execution windows (§3.2): simulate each steady-state
    phase a few times and weight measured deltas by the phase's real
    occurrence count; the first pass is warm-up and is discarded. *)

type step = {
  phase_idx : int;
  simulate : int;  (** occurrences to actually simulate *)
  weight : float;  (** real occurrences / simulated occurrences *)
}

(** [plan ?cap p] builds the measurement schedule ([cap] defaults to 2;
    raises [Invalid_argument] when non-positive). *)
val plan : ?cap:int -> Pcolor_comp.Ir.program -> step list

(** [warmup_plan p] is one pass over each steady phase. *)
val warmup_plan : Pcolor_comp.Ir.program -> step list
