(** Deterministic pseudo-random number generation.

    Every stochastic decision in the simulator (bin-hopping fault races,
    randomized page mapping, workload perturbations) draws from an
    explicit [Rng.t] so that experiments are reproducible bit-for-bit
    from a seed.  The generator is SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014): tiny state, excellent statistical quality, and
    trivially splittable for per-CPU streams. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(** [create seed] returns a fresh generator; equal seeds yield equal
    streams. *)
let create seed = { state = Int64.of_int seed }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [next_int64 t] advances the stream and returns the next raw 64-bit
    value. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    when [bound <= 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's tagged int non-negatively *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
