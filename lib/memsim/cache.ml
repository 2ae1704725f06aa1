(** Set-associative, write-back, write-allocate cache with LRU
    replacement.

    Used for both the virtually-indexed on-chip cache (indexed with
    virtual addresses) and the physically-indexed external cache (indexed
    with physical addresses) — the caller decides which address to pass.
    The hot path is allocation-free and a way is one word: its line
    number shifted left by one with the dirty flag in bit 0, [-1] when
    invalid.  Lines come from [lsr] by at least one bit, so they are
    never negative and [w lsr 1 = line] is the whole hit test ([-1 lsr
    1] is [max_int], past every line).  LRU stamps exist only when
    [assoc > 1]; the direct-mapped external cache has no use for them. *)

type t = {
  nsets : int;
  assoc : int;
  line_bits : int;
  set_mask : int;
  ways : int array;  (* nsets * assoc; (line lsl 1) lor dirty, -1 = invalid *)
  stamp : int array; (* parallel to [ways], larger = more recent; empty when assoc = 1 *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

(* Access results are packed into an immediate int so the per-reference
   hot path allocates nothing (the old [Hit {…}]/[Miss {…}] variant
   heap-allocated a block on every reference simulated):

     bit 0   1 = hit, 0 = miss
     bit 1   dirty flag: [was_dirty] on a hit (the line's dirty state
             before this access — a write hitting a clean line is a
             shared→exclusive upgrade in the coherence layer),
             [evicted_dirty] on a miss
     bits 2+ on a miss, victim line number + 1 (0 when the way was
             empty, i.e. victim = -1)

   Read results through {!res_hit}, {!res_dirty} and {!res_victim}. *)

let[@inline] res_hit r = r land 1 <> 0

let[@inline] res_dirty r = r land 2 <> 0

let[@inline] res_victim r = (r lsr 2) - 1

(** [create geom] builds an empty cache of the given geometry. *)
let create (g : Config.cache_geom) =
  Config.check_geom g;
  (* a 1-byte line would make [line] any int, [-1] included *)
  if g.line < 2 then invalid_arg "Cache.create: line smaller than 2 bytes";
  let nsets = g.size / (g.line * g.assoc) in
  {
    nsets;
    assoc = g.assoc;
    line_bits = Pcolor_util.Bits.log2 g.line;
    set_mask = nsets - 1;
    ways = Array.make (nsets * g.assoc) (-1);
    stamp = (if g.assoc > 1 then Array.make (nsets * g.assoc) 0 else [||]);
    tick = 0;
    hits = 0;
    misses = 0;
  }

(** [line_of t addr] is the line number containing byte address [addr]. *)
let line_of t addr = addr lsr t.line_bits

(** [n_sets t] is the set count; [set_of_line t line] the set a line
    number indexes into (attribution keys misses by set). *)
let n_sets t = t.nsets

let set_of_line t line = line land t.set_mask

let base_of_set t line = (line land t.set_mask) * t.assoc

(* Way search, hoisted to toplevel: as a local [let rec] capturing
   [t]/[base]/[line] it costs a closure allocation per reference, which
   is the one thing this module must never do. Returns the slot index,
   or -1 when the line is not resident. *)
let rec find_way (ways : int array) (line : int) base assoc i =
  if i >= assoc then -1
  else if Array.unsafe_get ways (base + i) lsr 1 = line then base + i
  else find_way ways line base assoc (i + 1)

(* Shared hit/fill steps, parameterized on the chosen slot.  [fill]
   reports the previous occupant: victim + 1 in bits 2+ (0 = the way
   was empty), its dirty bit in bit 1.  Neither touches the stamps. *)
let[@inline] hit_slot t slot write =
  t.hits <- t.hits + 1;
  let w = Array.unsafe_get t.ways slot in
  if write then Array.unsafe_set t.ways slot (w lor 1);
  1 lor ((w land 1) lsl 1)

let[@inline] fill_slot t slot line write =
  t.misses <- t.misses + 1;
  let w = Array.unsafe_get t.ways slot in
  Array.unsafe_set t.ways slot ((line lsl 1) lor Bool.to_int write);
  if w = -1 then 0 else (((w lsr 1) + 1) lsl 2) lor ((w land 1) lsl 1)

(* the set-associative paths' variants, which also stamp the slot *)
let[@inline] hit_lru t slot write =
  Array.unsafe_set t.stamp slot t.tick;
  hit_slot t slot write

let[@inline] fill_lru t slot line write =
  Array.unsafe_set t.stamp slot t.tick;
  fill_slot t slot line write

(** [access t ~addr ~write] simulates one reference.  On a miss the line
    is allocated (write-allocate) and the LRU way evicted; the result
    reports the victim so the caller can model write-back traffic.
    Writes set the dirty bit.  The result is the packed int described
    above — decode with {!res_hit}/{!res_dirty}/{!res_victim}. *)
let access t ~addr ~write =
  let line = line_of t addr in
  match t.assoc with
  | 1 ->
    (* direct-mapped (the external caches): one compare, the set index
       is the slot, no LRU state *)
    let slot = line land t.set_mask in
    if Array.unsafe_get t.ways slot lsr 1 = line then hit_slot t slot write
    else fill_slot t slot line write
  | 2 ->
    (* 2-way (the on-chip caches): both ways unrolled; victim = first
       empty way, else the older stamp (way 0 on ties, matching the
       generic scan's earliest-index tie-break) *)
    t.tick <- t.tick + 1;
    let base = (line land t.set_mask) * 2 in
    let w0 = Array.unsafe_get t.ways base in
    if w0 lsr 1 = line then hit_lru t base write
    else begin
      let w1 = Array.unsafe_get t.ways (base + 1) in
      if w1 lsr 1 = line then hit_lru t (base + 1) write
      else if w0 = -1 then fill_lru t base line write
      else if w1 = -1 then fill_lru t (base + 1) line write
      else if Array.unsafe_get t.stamp (base + 1) < Array.unsafe_get t.stamp base then
        fill_lru t (base + 1) line write
      else fill_lru t base line write
    end
  | assoc ->
    t.tick <- t.tick + 1;
    let base = base_of_set t line in
    let slot = find_way t.ways line base assoc 0 in
    if slot >= 0 then hit_lru t slot write
    else begin
      (* victim = first empty way if any, else LRU way (earliest index
         on stamp ties — stamps are unique in practice, but keep the
         old tie-break anyway) *)
      let victim = ref base in
      let best = ref max_int in
      let i = ref 0 in
      let scanning = ref true in
      while !scanning && !i < assoc do
        let s = base + !i in
        if Array.unsafe_get t.ways s = -1 then begin
          victim := s;
          scanning := false
        end
        else begin
          let st = Array.unsafe_get t.stamp s in
          if st < !best then begin
            best := st;
            victim := s
          end;
          incr i
        end
      done;
      fill_lru t !victim line write
    end

(** [contains t addr] is a non-intrusive residency probe (no LRU
    update, no statistics). *)
let contains t addr =
  let line = line_of t addr in
  find_way t.ways line (base_of_set t line) t.assoc 0 >= 0

(** [probe t addr] is a non-intrusive residency + dirty probe (no LRU
    update, no statistics): bit 0 resident, bit 1 dirty — the predicate
    {!Machine.consume_runs} needs to prove a run's tail accesses are
    side-effect-free L1 hits.  Decode with {!res_hit}/{!res_dirty}. *)
let probe t ~addr =
  let line = line_of t addr in
  let slot = find_way t.ways line (base_of_set t line) t.assoc 0 in
  if slot < 0 then 0 else 1 lor ((Array.unsafe_get t.ways slot land 1) lsl 1)

(** [invalidate t addr] drops the line if present, whatever its dirty
    state: callers (coherence invalidations, frame teardown) discard the
    copy, so nothing is returned and nothing is allocated. *)
let invalidate t addr =
  let line = line_of t addr in
  let slot = find_way t.ways line (base_of_set t line) t.assoc 0 in
  if slot >= 0 then t.ways.(slot) <- -1

(** [set_dirty_if_present t addr] marks the line dirty when resident;
    used when a write hits a clean L1 line, so the external cache learns
    the dirty state without modeling a full access. *)
let set_dirty_if_present t addr =
  let line = line_of t addr in
  let slot = find_way t.ways line (base_of_set t line) t.assoc 0 in
  if slot >= 0 then t.ways.(slot) <- t.ways.(slot) lor 1

(** [clean t addr] clears the dirty bit if the line is resident (after a
    remote CPU fetched the dirty data). *)
let clean t addr =
  let line = line_of t addr in
  let slot = find_way t.ways line (base_of_set t line) t.assoc 0 in
  if slot >= 0 then t.ways.(slot) <- t.ways.(slot) land lnot 1

(** [flush t] empties the cache and resets statistics-free state; hit and
    miss counters are preserved. *)
let flush t =
  Array.fill t.ways 0 (Array.length t.ways) (-1);
  Array.fill t.stamp 0 (Array.length t.stamp) 0

(** [hits t] / [misses t] are cumulative reference counts. *)
let hits t = t.hits

let misses t = t.misses

(** [resident_lines t] lists the line numbers currently cached (test
    helper; O(cache size)). *)
let resident_lines t =
  Array.to_list t.ways
  |> List.filter_map (fun w -> if w = -1 then None else Some (w lsr 1))
  |> List.sort_uniq compare
