(* Fixed-capacity fully-associative LRU over int keys.  See lru.mli for
   the contract.

   Both tables are sized by the capacity: [next_pow2 (2 × capacity)]
   bucket heads and, per slot, a chain link beside the recency links, so
   at load factor ≤ ½ a probe walks about one slot.  The bucket hash
   folds the key bits above the bucket index into it, so keys a power of
   two apart — the aliasing page coloring creates among physical lines —
   spread across buckets instead of sharing one chain.

   Recency is an intrusive doubly-linked list over the slots, most
   recent at [head].  Every slot is always on the list and free ones
   (key [-1]) sit at the tail, so [insert] always takes the tail slot: a
   free one while there is room, the LRU key once full. *)

type t = {
  capacity : int;
  bucket_bits : int; (* log2 of [Array.length bucket] *)
  bucket_mask : int;
  bucket : int array; (* hash -> first slot of its chain, -1 = empty *)
  chain : int array; (* slot -> next slot in its bucket's chain, -1 = end *)
  key : int array; (* slot -> key, -1 = free *)
  prev : int array; (* -1 at the head *)
  next : int array; (* -1 at the tail *)
  mutable head : int;
  mutable tail : int;
  mutable length : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let nbuckets = Bits.next_pow2 (2 * capacity) in
  {
    capacity;
    bucket_bits = Bits.log2 nbuckets;
    bucket_mask = nbuckets - 1;
    bucket = Array.make nbuckets (-1);
    chain = Array.make capacity (-1);
    key = Array.make capacity (-1);
    prev = Array.init capacity (fun i -> i - 1);
    next = Array.init capacity (fun i -> if i = capacity - 1 then -1 else i + 1);
    head = 0;
    tail = capacity - 1;
    length = 0;
  }

let[@inline] hash t key = (key lxor (key lsr t.bucket_bits)) land t.bucket_mask

(* Slot indices come from the bounded tables above, so the list and
   chain updates skip bounds checks: [use] runs on every translated and
   every shadowed reference. *)
let rec find_in_chain t key slot =
  if slot = -1 || Array.unsafe_get t.key slot = key then slot
  else find_in_chain t key (Array.unsafe_get t.chain slot)

let[@inline] find t key = find_in_chain t key (Array.unsafe_get t.bucket (hash t key))

let[@inline] unlink t slot =
  let p = Array.unsafe_get t.prev slot and n = Array.unsafe_get t.next slot in
  if p <> -1 then Array.unsafe_set t.next p n else t.head <- n;
  if n <> -1 then Array.unsafe_set t.prev n p else t.tail <- p

let[@inline] use t slot =
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

(* Take the live [slot] out of its bucket's chain, wherever in the chain
   it sits. *)
let unhash t slot =
  let h = hash t (Array.unsafe_get t.key slot) in
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

let insert t key =
  let slot = t.tail in
  if Array.unsafe_get t.key slot >= 0 then unhash t slot else t.length <- t.length + 1;
  let h = hash t key in
  Array.unsafe_set t.key slot key;
  Array.unsafe_set t.chain slot (Array.unsafe_get t.bucket h);
  Array.unsafe_set t.bucket h slot;
  use t slot;
  slot

let remove t key =
  let slot = find t key in
  if slot >= 0 then begin
    unhash t slot;
    Array.unsafe_set t.key slot (-1);
    t.length <- t.length - 1;
    move_to_back t slot
  end

(* With every slot free, list order no longer matters. *)
let clear t =
  Array.fill t.bucket 0 (Array.length t.bucket) (-1);
  Array.fill t.key 0 t.capacity (-1);
  t.length <- 0

let length t = t.length

let capacity t = t.capacity
