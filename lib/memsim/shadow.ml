(** Fully-associative LRU shadow cache, used to split replacement misses
    into conflict and capacity.

    A reference that misses in the real set-associative cache but would
    have hit in a fully-associative LRU cache of the same total capacity
    is a {e conflict} miss — it exists only because of limited
    associativity and indexing, which is precisely what page coloring
    manipulates.  A miss in both is a {e capacity} miss.

    The structure is an O(1) LRU probed on every reference the shadowed
    cache sees, so the line→slot map must be cheap.  Physical line
    numbers are dense in practice — frames come from a compact
    {!Pcolor_vm.Frame_pool} sized a small multiple of the aggregate L2 —
    so the map is a direct-indexed array grown by doubling (one load per
    probe, one store per insert/evict) — a {!Pcolor_util.Densemap},
    which spills lines past its cap to an Itab so arbitrary keys stay
    correct without unbounded memory.  The previous open-addressing
    {!Pcolor_util.Itab} cost ~53 ns per streaming access at scale-64
    geometry (find + backward-shift remove + re-probing set per miss);
    the direct array cuts that to ~8 ns.  Recency is an intrusive
    doubly-linked list over slot arrays; never-used slots are handed
    out by bumping [next_free]. *)

module Densemap = Pcolor_util.Densemap

type t = {
  capacity : int; (* number of lines *)
  slot_of : Densemap.t; (* line -> slot *)
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
  {
    capacity;
    slot_of = Densemap.create ~initial:(max 1024 (4 * capacity));
    line_no = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    head = -1;
    tail = -1;
    next_free = 0;
    size = 0;
  }

(* Slot indices come from the bounded tables below, so the intrusive
   list updates skip bounds checks: these two run on every shadowed
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

(** [access t line] touches [line]: returns [true] if it was resident
    (an FA-LRU hit), [false] otherwise.  On a miss the line is inserted,
    evicting the LRU line when full.  Must be called on {e every}
    reference, hit or miss in the real cache, to keep recency exact. *)
let access t line =
  let slot = Densemap.find t.slot_of line in
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
        Densemap.remove t.slot_of t.line_no.(victim);
        unlink t victim;
        victim
      end
    in
    Array.unsafe_set t.line_no slot line;
    Densemap.set t.slot_of line slot;
    push_front t slot;
    false
  end

(** [mem t line] is a residency probe with no LRU (or growth) side
    effect. *)
let mem t line = Densemap.mem t.slot_of line

(** [size t] is the current number of resident lines. *)
let size t = t.size

(** [capacity t] is the maximum number of resident lines. *)
let capacity t = t.capacity
