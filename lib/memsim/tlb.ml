(** Per-CPU translation lookaside buffer: fully associative, LRU.

    The TLB matters to the paper in two ways: TLB-refill time is the
    dominant kernel overhead of the workloads (§4.1), and prefetches to
    unmapped pages are dropped (§6.2), which defeats prefetching in
    large-stride codes like applu.

    The translations are a {!Pcolor_util.Lru} of vpages, so every
    operation is O(1); each slot's frame sits beside it here.  See
    tlb.mli for the contract of each operation. *)

module Lru = Pcolor_util.Lru

type t = {
  lru : Lru.t; (* vpages *)
  frame : int array; (* slot -> frame *)
  mutable gen : int; (* bumped on every content change (insert/invalidate/flush) *)
}

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  { lru = Lru.create ~capacity:entries; frame = Array.make entries 0; gen = 0 }

let lookup_slot t vpage =
  let slot = Lru.find t.lru vpage in
  if slot >= 0 then Lru.use t.lru slot;
  slot

let frame_at t slot = Array.unsafe_get t.frame slot

(* no recency effect: the prefetch unit's probes do not fault (§6.2) *)
let probe_frame t vpage =
  let slot = Lru.find t.lru vpage in
  if slot >= 0 then Array.unsafe_get t.frame slot else -1

(* the memoized hit: recency advances exactly as [lookup_slot]'s would *)
let touch t slot = Lru.use t.lru slot

let generation t = t.gen

let insert t ~vpage ~frame =
  let slot = lookup_slot t vpage in
  let slot = if slot >= 0 then slot else Lru.insert t.lru vpage in
  t.gen <- t.gen + 1;
  Array.unsafe_set t.frame slot frame;
  slot

let invalidate t vpage =
  t.gen <- t.gen + 1;
  Lru.remove t.lru vpage

let flush t =
  t.gen <- t.gen + 1;
  Lru.clear t.lru

let occupancy t = Lru.length t.lru
