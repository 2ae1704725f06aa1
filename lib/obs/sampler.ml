(** Cycle-epoch counter sampler: the time axis of the observability
    layer.

    The machine owns the counters; this module owns the timeline.  A
    sampler is dimensioned at creation ([n_cpus] CPUs × [n_counters]
    per-CPU columns + [n_global] machine-wide columns) and the producer
    drives it with a two-step protocol on its simulation hot path:

    + [due t ~cpu ~time] — one array load and a compare; true when the
      CPU's local clock has crossed its next epoch boundary;
    + fill [scratch t] with the {e cumulative} counter values, then
      [commit t ~cpu ~time] — the sampler stores the delta against the
      previous committed row (per-CPU for the counter columns, global
      for the shared columns) and arms the next boundary.

    Storage is a flat preallocated [int array] grown by doubling; every
    backing array is large enough to be allocated directly on the major
    heap, so steady-state sampling costs zero minor-heap words (pinned
    by a [Gc.minor_words] test).  Because rows are deltas against the
    previous commit, summing any column over all rows (after the final
    [commit] flush) reproduces the end-of-run aggregate exactly — the
    reconciliation invariant.

    Rows are tagged with the committing CPU's current job (address
    space) so multiprogrammed timelines split per job; the scheduler
    maintains the assignment via [set_job] and records context-switch
    instants via [mark_switch]. *)

(* Row layout: [header] ++ per-CPU counter deltas ++ global deltas;
   [commit] writes the header cells in this order. *)
let header = [ "epoch"; "cpu"; "job"; "time" ]

let header_width = List.length header

type t = {
  epoch_cycles : int;
  n_cpus : int;
  n_counters : int;
  n_global : int;
  row_width : int;
  scratch : int array; (* n_counters + n_global cumulative values *)
  prev : int array; (* per-CPU previous cumulative values, flattened *)
  prev_global : int array;
  next_due : int array; (* per-CPU next epoch boundary (local cycles) *)
  job : int array; (* per-CPU current address space *)
  mutable store : int array; (* n_rows × row_width *)
  mutable n_rows : int;
  mutable events : int array; (* context switches: (time, from, to) triples *)
  mutable n_events : int;
  mutable flushed : bool;
}

let default_epoch_cycles = 1_000_000

(* Initial capacities are chosen so [Array.make] goes straight to the
   major heap (> Max_young_wosize = 256 words): growth never touches
   the minor heap either, keeping the zero-allocation pin honest. *)
let min_store_words = 4096
let min_event_words = 384

let create ?(epoch_cycles = default_epoch_cycles) ~n_cpus ~n_counters ~n_global () =
  if epoch_cycles <= 0 then invalid_arg "Sampler.create: epoch_cycles must be positive";
  if n_cpus <= 0 then invalid_arg "Sampler.create: n_cpus must be positive";
  if n_counters < 0 || n_global < 0 then invalid_arg "Sampler.create: negative column count";
  let row_width = header_width + n_counters + n_global in
  {
    epoch_cycles;
    n_cpus;
    n_counters;
    n_global;
    row_width;
    scratch = Array.make (max 1 (n_counters + n_global)) 0;
    prev = Array.make (max 1 (n_cpus * n_counters)) 0;
    prev_global = Array.make (max 1 n_global) 0;
    next_due = Array.make n_cpus epoch_cycles;
    job = Array.make n_cpus 0;
    store = Array.make (max min_store_words (row_width * 64)) 0;
    n_rows = 0;
    events = Array.make min_event_words 0;
    n_events = 0;
    flushed = false;
  }

let n_cpus t = t.n_cpus
let n_counters t = t.n_counters
let n_global t = t.n_global
let n_rows t = t.n_rows
let scratch t = t.scratch

let due t ~cpu ~time = time >= Array.unsafe_get t.next_due cpu

(** [next_due t ~cpu] is the local cycle at which [cpu]'s next epoch
    boundary falls — the bulk-retire fast path of
    {!Pcolor_memsim.Machine.consume_runs} uses it to prove a whole run
    of tail groups commits no row, without a per-group {!due} check. *)
let next_due t ~cpu = Array.unsafe_get t.next_due cpu

let ensure_row t =
  let need = (t.n_rows + 1) * t.row_width in
  if need > Array.length t.store then begin
    let ns = Array.make (2 * Array.length t.store) 0 in
    Array.blit t.store 0 ns 0 (t.n_rows * t.row_width);
    t.store <- ns
  end

let commit t ~cpu ~time =
  ensure_row t;
  let st = t.store in
  let base = t.n_rows * t.row_width in
  let epoch = time / t.epoch_cycles in
  st.(base) <- epoch;
  st.(base + 1) <- cpu;
  st.(base + 2) <- t.job.(cpu);
  st.(base + 3) <- time;
  let po = cpu * t.n_counters in
  for i = 0 to t.n_counters - 1 do
    let v = Array.unsafe_get t.scratch i in
    Array.unsafe_set st (base + header_width + i) (v - Array.unsafe_get t.prev (po + i));
    Array.unsafe_set t.prev (po + i) v
  done;
  let go = base + header_width + t.n_counters in
  for i = 0 to t.n_global - 1 do
    let v = Array.unsafe_get t.scratch (t.n_counters + i) in
    Array.unsafe_set st (go + i) (v - Array.unsafe_get t.prev_global i);
    Array.unsafe_set t.prev_global i v
  done;
  t.n_rows <- t.n_rows + 1;
  t.next_due.(cpu) <- (epoch + 1) * t.epoch_cycles

let cell t ~row ~col =
  if row < 0 || row >= t.n_rows then invalid_arg "Sampler.cell: row out of range";
  if col < 0 || col >= t.row_width then invalid_arg "Sampler.cell: col out of range";
  t.store.((row * t.row_width) + col)

let set_job t ~cpu asid = t.job.(cpu) <- asid

let mark_switch t ~time ~from_asid ~to_asid =
  let need = 3 * (t.n_events + 1) in
  if need > Array.length t.events then begin
    let ns = Array.make (2 * Array.length t.events) 0 in
    Array.blit t.events 0 ns 0 (3 * t.n_events);
    t.events <- ns
  end;
  let base = 3 * t.n_events in
  t.events.(base) <- time;
  t.events.(base + 1) <- from_asid;
  t.events.(base + 2) <- to_asid;
  t.n_events <- t.n_events + 1

let event t i =
  if i < 0 || i >= t.n_events then invalid_arg "Sampler.event: out of range";
  (t.events.(3 * i), t.events.((3 * i) + 1), t.events.((3 * i) + 2))

let flushed t = t.flushed
let set_flushed t = t.flushed <- true

let reset t =
  t.n_rows <- 0;
  t.n_events <- 0;
  t.flushed <- false;
  Array.fill t.prev 0 (Array.length t.prev) 0;
  Array.fill t.prev_global 0 (Array.length t.prev_global) 0;
  (* clocks rebase to zero with the stats they sample *)
  Array.fill t.next_due 0 t.n_cpus t.epoch_cycles
(* the per-CPU job assignment survives a reset: the scheduler re-asserts
   it at every dispatch, and a plain single-job run never sets it *)

let iter_rows t f =
  for r = 0 to t.n_rows - 1 do
    f r
  done

let to_json ~columns t =
  if List.length columns <> t.row_width then
    invalid_arg "Sampler.to_json: column list does not match row width";
  let row r = Json.Arr (List.init t.row_width (fun c -> Json.Int (cell t ~row:r ~col:c))) in
  let ev i =
    let time, from_asid, to_asid = event t i in
    Json.Obj
      [ ("time", Json.Int time); ("from", Json.Int from_asid); ("to", Json.Int to_asid) ]
  in
  Json.Obj
    [
      ("epoch_cycles", Json.Int t.epoch_cycles);
      ("n_cpus", Json.Int t.n_cpus);
      ("columns", Json.Arr (List.map (fun c -> Json.Str c) columns));
      ("rows", Json.Arr (List.init t.n_rows row));
      ("events", Json.Arr (List.init t.n_events ev));
    ]
