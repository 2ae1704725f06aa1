(** Direct-indexed int→int map with an {!Itab} spill; see the
    interface.  The array holds [-1] for absent keys, so a probe is one
    bounds compare and one load. *)

(* A pathological address space must not balloon memory: real
   configurations sit far below this (the largest physical line number
   is frames × lines per page, and the default frame pool is 4× the
   aggregate L2). *)
let direct_limit = 1 lsl 22

type t = {
  mutable dense : int array; (* key -> value, -1 = absent *)
  mutable dense_count : int; (* bindings held in [dense] *)
  spill : Itab.t; (* keys outside [0, direct_limit) *)
}

let create ~initial =
  {
    dense = Array.make (max 1 (min direct_limit initial)) (-1);
    dense_count = 0;
    spill = Itab.create ~capacity:64 ();
  }

(* The array's reach only matters below [direct_limit]: where a key
   lives is a pure function of its value, so a set and a later remove
   always agree. *)
let[@inline] is_dense key = key >= 0 && key < direct_limit

let[@inline] find t key =
  if is_dense key then
    if key < Array.length t.dense then Array.unsafe_get t.dense key else -1
  else Itab.find t.spill key ~default:(-1)

let[@inline never] grow t key =
  let n = ref (Array.length t.dense) in
  while key >= !n do n := !n * 2 done;
  let a = Array.make (min direct_limit !n) (-1) in
  Array.blit t.dense 0 a 0 (Array.length t.dense);
  t.dense <- a

let[@inline] set t key v =
  if is_dense key then begin
    if key >= Array.length t.dense then grow t key;
    if Array.unsafe_get t.dense key < 0 then t.dense_count <- t.dense_count + 1;
    Array.unsafe_set t.dense key v
  end
  else Itab.set t.spill key v

let length t = t.dense_count + Itab.length t.spill
