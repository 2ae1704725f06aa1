(** Small integer utilities used throughout the cache and VM models.
    Cache geometry is power-of-two everywhere, so index/tag extraction is
    mask-and-shift; these helpers keep that arithmetic in one audited
    place. *)

(** [is_pow2 n] is true iff [n] is a positive power of two. *)
let is_pow2 n = n > 0 && n land (n - 1) = 0

(** [log2 n] for a positive power of two [n]; raises [Invalid_argument]
    otherwise.  [log2 4096 = 12]. *)
let log2 n =
  if not (is_pow2 n) then invalid_arg (Printf.sprintf "Bits.log2: %d is not a power of two" n);
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(** [ceil_div a b] is ⌈a/b⌉ for positive [b]. *)
let ceil_div a b =
  if b <= 0 then invalid_arg "Bits.ceil_div: divisor must be positive";
  (a + b - 1) / b

(** [round_up a b] rounds [a] up to the next multiple of [b]. *)
let round_up a b = ceil_div a b * b

(** [next_pow2 n] is the smallest power of two >= [max 1 n]. *)
let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(** [popcount n] counts set bits in the non-negative integer [n]. *)
let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

(** [iter_bits n f] applies [f] to the index of every set bit of [n],
    lowest first. *)
let iter_bits n f =
  let rec go n i =
    if n <> 0 then begin
      if n land 1 = 1 then f i;
      go (n lsr 1) (i + 1)
    end
  in
  go n 0

(** [bits_to_list n] is the ascending list of set-bit indices of [n];
    convenient for rendering processor sets. *)
let bits_to_list n =
  let acc = ref [] in
  iter_bits n (fun i -> acc := i :: !acc);
  List.rev !acc
