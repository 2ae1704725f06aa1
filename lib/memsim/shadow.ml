(** Fully-associative LRU shadow cache, used to split replacement misses
    into conflict and capacity.

    A reference that misses in the real set-associative cache but would
    have hit in a fully-associative LRU cache of the same total capacity
    is a {e conflict} miss — it exists only because of limited
    associativity and indexing, which is precisely what page coloring
    manipulates.  A miss in both is a {e capacity} miss.

    The structure is an O(1) LRU probed on every external-cache access,
    one per CPU, so its line→slot index must be both cheap and small.
    Every table is sized by the shadowed cache: [next_pow2 (2 ×
    capacity)] bucket heads and, per slot, a chain link beside the
    intrusive LRU links, so at load factor ≤ ½ a probe walks about one
    slot.  A direct-indexed array over physical lines would probe in one
    load but grow with the largest line ever touched, on every CPU.  The
    bucket hash folds the line bits above the bucket index into it, so
    lines of frames a power of two apart — the aliasing page coloring
    creates — spread across buckets instead of sharing one chain.
    Recency is an intrusive doubly-linked list over slot arrays;
    never-used slots are handed out by bumping [next_free]. *)

type t = {
  capacity : int; (* number of lines *)
  bucket_bits : int; (* log2 of [Array.length bucket] *)
  bucket_mask : int;
  bucket : int array; (* hash -> first slot of its chain, -1 = empty *)
  chain : int array; (* slot -> next slot in its bucket's chain, -1 = end *)
  line_no : int array; (* slot -> line (-1 = free) *)
  prev : int array;
  next : int array;
  mutable head : int; (* most recently used; -1 when empty *)
  mutable tail : int; (* least recently used; -1 when empty *)
  mutable next_free : int; (* slots >= next_free have never been used *)
  mutable size : int;
}

(** [create geom] builds a shadow for a cache of the same byte capacity
    and line size as [geom] (associativity is ignored: the shadow is
    fully associative by definition). *)
let create (g : Config.cache_geom) =
  let capacity = g.size / g.line in
  let nbuckets = Pcolor_util.Bits.next_pow2 (2 * capacity) in
  {
    capacity;
    bucket_bits = Pcolor_util.Bits.log2 nbuckets;
    bucket_mask = nbuckets - 1;
    bucket = Array.make nbuckets (-1);
    chain = Array.make capacity (-1);
    line_no = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    head = -1;
    tail = -1;
    next_free = 0;
    size = 0;
  }

let[@inline] hash t line = (line lxor (line lsr t.bucket_bits)) land t.bucket_mask

(* Slot indices come from the bounded tables below, so the list and
   chain updates skip bounds checks: they run on every shadowed
   reference. *)
let[@inline] unlink t slot =
  let p = Array.unsafe_get t.prev slot and n = Array.unsafe_get t.next slot in
  if p <> -1 then Array.unsafe_set t.next p n else t.head <- n;
  if n <> -1 then Array.unsafe_set t.prev n p else t.tail <- p;
  Array.unsafe_set t.prev slot (-1);
  Array.unsafe_set t.next slot (-1)

let[@inline] push_front t slot =
  Array.unsafe_set t.prev slot (-1);
  Array.unsafe_set t.next slot t.head;
  if t.head <> -1 then Array.unsafe_set t.prev t.head slot;
  t.head <- slot;
  if t.tail = -1 then t.tail <- slot

(* The slot holding [line], or -1. *)
let rec find_in_chain t line slot =
  if slot = -1 || Array.unsafe_get t.line_no slot = line then slot
  else find_in_chain t line (Array.unsafe_get t.chain slot)

let[@inline] find t line = find_in_chain t line (Array.unsafe_get t.bucket (hash t line))

(* Take the resident [slot] out of its bucket's chain, wherever in the
   chain it sits. *)
let unhash t slot =
  let h = hash t (Array.unsafe_get t.line_no slot) in
  let after = Array.unsafe_get t.chain slot in
  let first = Array.unsafe_get t.bucket h in
  if first = slot then Array.unsafe_set t.bucket h after
  else begin
    let p = ref first in
    while Array.unsafe_get t.chain !p <> slot do
      p := Array.unsafe_get t.chain !p
    done;
    Array.unsafe_set t.chain !p after
  end

(** [access t line] touches [line]: returns [true] if it was resident
    (an FA-LRU hit), [false] otherwise.  On a miss the line is inserted,
    evicting the LRU line when full.  Must be called on {e every} access
    to the shadowed cache, hit or miss there, to keep recency exact. *)
let access t line =
  let slot = find t line in
  if slot >= 0 then begin
    if t.head <> slot then begin
      unlink t slot;
      push_front t slot
    end;
    true
  end
  else begin
    let slot =
      if t.next_free < t.capacity then begin
        let s = t.next_free in
        t.next_free <- s + 1;
        t.size <- t.size + 1;
        s
      end
      else begin
        let victim = t.tail in
        unhash t victim;
        unlink t victim;
        victim
      end
    in
    let h = hash t line in
    Array.unsafe_set t.line_no slot line;
    Array.unsafe_set t.chain slot (Array.unsafe_get t.bucket h);
    Array.unsafe_set t.bucket h slot;
    push_front t slot;
    false
  end

(** [mem t line] is a residency probe with no LRU side effect. *)
let mem t line = find t line >= 0

(** [size t] is the current number of resident lines. *)
let size t = t.size

(** [capacity t] is the maximum number of resident lines. *)
let capacity t = t.capacity
