(** Open-addressing int→int hash table for the simulator's hot path.

    Rationale: [Hashtbl] boxes every binding in a bucket cell and
    [Hashtbl.find_opt] allocates a [Some] per successful probe — on
    paths that run once per simulated reference (shadow-cache lookup,
    prefetch bookkeeping, directory state) that is the dominant
    allocation source of the whole program.  This table stores keys and
    values in two flat int arrays with linear probing, so probes touch
    one or two adjacent cache lines and never allocate.

    Layout discipline:
    - capacity is a power of two; the probe sequence is
      [h, h+1, h+2, ...] modulo capacity (cheap mask, good locality);
    - keys must be non-negative; the key slot [-1] marks an empty cell
      (the sentinel lives in the key array, not in an option);
    - [find] takes the caller's notion of "absent" as [~default] and
      returns it unboxed — no [option], no exception;
    - deletion uses backward-shift compaction (no tombstones), so probe
      chains never degrade under churn;
    - growth doubles the arrays in place (amortized O(1) insert) at a
      3/4 load factor.

    All operations are deterministic: the hash is a fixed multiplicative
    mix, never seeded. *)

type t = {
  mutable keys : int array; (* -1 = empty; all other entries >= 0 *)
  mutable vals : int array; (* parallel to [keys] *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

(* Fixed multiplicative mix (SplitMix-style finalizer): the multiply
   spreads entropy into the high bits, the xor-shift folds them back
   down so the low [log2 capacity] bits used for indexing depend on the
   whole key.  Wraps on native-int overflow, which is fine — we only
   need determinism and spread. *)
let[@inline] hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 31)

let check_key k = if k < 0 then invalid_arg "Itab: negative key"

(** [create ?capacity ()] is an empty table pre-sized for [capacity]
    bindings (rounded up to a power of two, minimum 8). *)
let create ?(capacity = 16) () =
  let cap = max 8 (Bits.next_pow2 (max 1 capacity)) in
  { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; size = 0 }

(** [length t] is the number of bindings. *)
let length t = t.size

(** [capacity t] is the current slot count (tests/benchmarks). *)
let capacity t = t.mask + 1

(* Index of the cell holding [key], or of the empty cell where it would
   be inserted.  The table is never full (load <= 3/4), so the scan
   terminates. *)
let[@inline] probe t key =
  let keys = t.keys in
  let mask = t.mask in
  let i = ref (hash key land mask) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

(** [find t key ~default] is the value bound to [key], or [default] when
    absent.  Never allocates. *)
let find t key ~default =
  check_key key;
  let i = probe t key in
  if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else default

(** [mem t key] tests whether [key] is bound. *)
let mem t key =
  check_key key;
  t.keys.(probe t key) = key

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k >= 0 then begin
      let j = probe t k in
      t.keys.(j) <- k;
      t.vals.(j) <- old_vals.(i)
    end
  done

(* Grow before probing for an insert so the insertion point is computed
   against the final geometry. *)
let[@inline] ensure_room t = if (t.size + 1) * 4 > (t.mask + 1) * 3 then grow t

(** [set t key v] binds [key] to [v], replacing any previous binding. *)
let set t key v =
  check_key key;
  ensure_room t;
  let i = probe t key in
  if Array.unsafe_get t.keys i < 0 then begin
    Array.unsafe_set t.keys i key;
    t.size <- t.size + 1
  end;
  Array.unsafe_set t.vals i v

(** [add t key delta] is a single-probe upsert:
    [t(key) <- delta + (t(key) or 0)] — the read and the write share one
    probe, where a [Hashtbl] needs a [find_opt] and a [replace]. *)
let add t key delta =
  check_key key;
  ensure_room t;
  let i = probe t key in
  if Array.unsafe_get t.keys i = key then
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals i + delta)
  else begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i delta;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: after vacating cell [i], walk the following
   cluster and pull back any entry whose home slot does not lie
   cyclically in (i, j] — exactly the entries whose probe path crossed
   the new hole.  Keeps lookups exact without tombstones. *)
let remove t key =
  check_key key;
  let i = probe t key in
  if t.keys.(i) = key then begin
    t.size <- t.size - 1;
    let mask = t.mask in
    let keys = t.keys and vals = t.vals in
    let hole = ref i in
    let j = ref ((i + 1) land mask) in
    keys.(i) <- -1;
    let continue = ref true in
    while !continue do
      let k = keys.(!j) in
      if k < 0 then continue := false
      else begin
        let home = hash k land mask in
        let i = !hole and j' = !j in
        let reachable =
          (* home cyclically in (hole, j]: the probe path home..j does
             not pass the hole, so the entry stays put *)
          if i < j' then home > i && home <= j' else home > i || home <= j'
        in
        if not reachable then begin
          keys.(i) <- k;
          vals.(i) <- vals.(!j);
          keys.(!j) <- -1;
          hole := !j
        end;
        j := (!j + 1) land mask
      end
    done
  end

(** [reset t] removes every binding, keeping the allocated arrays. *)
let reset t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.size <- 0

(** [iter f t] applies [f key value] to every binding, in unspecified
    (slot) order.  Cold-path helper. *)
let iter f t =
  for i = 0 to t.mask do
    let k = t.keys.(i) in
    if k >= 0 then f k t.vals.(i)
  done

(** [fold f t init] folds over bindings in slot order. *)
let fold f t init =
  let acc = ref init in
  for i = 0 to t.mask do
    let k = t.keys.(i) in
    if k >= 0 then acc := f k t.vals.(i) !acc
  done;
  !acc
