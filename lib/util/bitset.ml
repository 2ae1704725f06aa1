(** A growable dense bitset over non-negative integers.

    Built for the simulator's hot path: membership tests and inserts on
    densely packed index spaces (physical line numbers) where a
    [Hashtbl] would allocate on every insert and hash on every probe.
    Storage is one byte per eight indices; [set] grows the backing
    buffer geometrically, [mem] never allocates and treats indices past
    the current capacity as absent. *)

type t = { mutable bits : Bytes.t }

(** [create n] is an empty set pre-sized for indices below [n]. *)
let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { bits = Bytes.make (max 1 ((n + 7) lsr 3)) '\000' }

(** [mem t i] tests membership; indices beyond the capacity are absent.
    Never allocates. *)
let mem t i =
  let byte = i lsr 3 in
  byte < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl (i land 7)) <> 0

let grow t need =
  let len = Bytes.length t.bits in
  let len' = ref (2 * len) in
  while !len' < need do
    len' := 2 * !len'
  done;
  let b = Bytes.make !len' '\000' in
  Bytes.blit t.bits 0 b 0 len;
  t.bits <- b

(** [set t i] inserts [i], growing the buffer as needed. *)
let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  let byte = i lsr 3 in
  if byte >= Bytes.length t.bits then grow t (byte + 1);
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))
