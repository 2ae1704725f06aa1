(** Per-CPU translation lookaside buffer: fully associative, LRU.

    The TLB matters to the paper in two ways: TLB-refill time is the
    dominant kernel overhead of the workloads (§4.1), and prefetches to
    unmapped pages are dropped (§6.2), which defeats prefetching in
    large-stride codes like applu.

    Every operation is O(1): a vpage→slot {!Pcolor_util.Itab} finds a
    translation, and recency is an intrusive doubly-linked list over
    the [entries] slots (most recent at [head]).  All slots are always
    on the list, free ones (vpage [-1]) gathered at the tail, so a
    refill always takes the tail slot: a free one while the TLB has
    room, the LRU translation once it is full.  Hits move their slot to
    the front, [invalidate] moves it to the tail as free. *)

type t = {
  entries : int;
  slot_of : Pcolor_util.Itab.t; (* vpage -> slot *)
  vpage : int array; (* slot -> vpage, -1 = free *)
  frame : int array; (* slot -> frame *)
  prev : int array; (* -1 at the head *)
  next : int array; (* -1 at the tail *)
  mutable head : int;
  mutable tail : int;
  mutable gen : int; (* bumped on every content change (insert/invalidate/flush) *)
  mutable hits : int;
  mutable misses : int;
}

(** [create ~entries] builds an empty TLB with [entries] slots. *)
let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    entries;
    slot_of = Pcolor_util.Itab.create ~capacity:(2 * entries) ();
    vpage = Array.make entries (-1);
    frame = Array.make entries 0;
    prev = Array.init entries (fun i -> i - 1);
    next = Array.init entries (fun i -> if i = entries - 1 then -1 else i + 1);
    head = 0;
    tail = entries - 1;
    gen = 0;
    hits = 0;
    misses = 0;
  }

(* Slot indices come from the bounded arrays above, so the list updates
   skip bounds checks: [move_to_front] runs on every translated
   reference. *)
let[@inline] unlink t slot =
  let p = Array.unsafe_get t.prev slot and n = Array.unsafe_get t.next slot in
  if p <> -1 then Array.unsafe_set t.next p n else t.head <- n;
  if n <> -1 then Array.unsafe_set t.prev n p else t.tail <- p

let[@inline] move_to_front t slot =
  if t.head <> slot then begin
    unlink t slot;
    Array.unsafe_set t.prev slot (-1);
    Array.unsafe_set t.next slot t.head;
    Array.unsafe_set t.prev t.head slot;
    t.head <- slot
  end

let move_to_back t slot =
  if t.tail <> slot then begin
    unlink t slot;
    Array.unsafe_set t.next slot (-1);
    Array.unsafe_set t.prev slot t.tail;
    Array.unsafe_set t.next t.tail slot;
    t.tail <- slot
  end

(** [lookup_slot t vpage] is the slot caching [vpage] (recency
    refreshed, counters updated), or [-1] on a TLB miss. *)
let lookup_slot t vpage =
  let slot = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if slot >= 0 then begin
    t.hits <- t.hits + 1;
    move_to_front t slot
  end
  else t.misses <- t.misses + 1;
  slot

(** [frame_at t slot] is the frame cached in [slot]. *)
let frame_at t slot = Array.unsafe_get t.frame slot

(** [probe_frame t vpage] is the cached frame for [vpage], or [-1],
    without statistics or recency effects — used by the prefetch unit,
    whose TLB probes do not fault (§6.2). *)
let probe_frame t vpage =
  let slot = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if slot >= 0 then Array.unsafe_get t.frame slot else -1

(** [touch t slot] replays a guaranteed hit on a slot the caller has
    proven still holds its translation (a memoized lookup while
    {!generation} was unchanged): counters and recency advance exactly
    as {!lookup_slot} would, without probing the table. *)
let touch t slot =
  t.hits <- t.hits + 1;
  move_to_front t slot

(** [generation t] changes whenever the TLB's {e contents} change —
    insert, invalidate or flush (recency refreshes do not count).  A
    translation observed in slot [s] at generation [g] is still in [s]
    while [generation t = g]; memoization of lookups keys on this. *)
let generation t = t.gen

(** [insert t ~vpage ~frame] installs a translation, evicting the LRU
    entry when full, and returns its slot. *)
let insert t ~vpage ~frame =
  let slot =
    let present = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
    if present >= 0 then present
    else begin
      let slot = t.tail in
      let victim = Array.unsafe_get t.vpage slot in
      if victim >= 0 then Pcolor_util.Itab.remove t.slot_of victim;
      Array.unsafe_set t.vpage slot vpage;
      Pcolor_util.Itab.set t.slot_of vpage slot;
      slot
    end
  in
  t.gen <- t.gen + 1;
  Array.unsafe_set t.frame slot frame;
  move_to_front t slot;
  slot

(** [invalidate t vpage] drops one translation (page remap / recolor). *)
let invalidate t vpage =
  t.gen <- t.gen + 1;
  let slot = Pcolor_util.Itab.find t.slot_of vpage ~default:(-1) in
  if slot >= 0 then begin
    Pcolor_util.Itab.remove t.slot_of vpage;
    Array.unsafe_set t.vpage slot (-1);
    move_to_back t slot
  end

(** [flush t] empties the TLB (context switch / recoloring shootdown).
    With every slot free, list order no longer matters. *)
let flush t =
  t.gen <- t.gen + 1;
  Pcolor_util.Itab.reset t.slot_of;
  Array.fill t.vpage 0 t.entries (-1)

(** [hits t] / [misses t] are cumulative counters. *)
let hits t = t.hits

let misses t = t.misses

(** [occupancy t] is the number of live translations. *)
let occupancy t = Pcolor_util.Itab.length t.slot_of
