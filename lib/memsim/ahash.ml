(* Slice-index address hash for the hashed/sliced external cache
   (DESIGN §16).

   Modern LLCs are split into slices selected by an XOR of high
   physical-address bits ("Cracking Intel Sandy Bridge's Cache Hash
   Function", PAPERS.md) rather than by a contiguous bit field, which
   breaks the paper's set = f(page color) assumption.  This module
   models that family: each slice-index bit is the GF(2) dot product
   (XOR-parity) of the physical *frame number* with one mask row, so
   the hash is a bit matrix over frame bits.

   Geometry glossary (with [n_colors] page colors and [n_slices]
   slices, both powers of two):

     slice_bits = log2 n_slices
     groups     = n_colors / n_slices   (page-sized regions per slice)
     group_bits = log2 groups

   A frame's *group* is its low [group_bits] bits; its *slice* is the
   hash of the remaining (higher) frame bits.  The true conflict bin is

     bin = slice * groups + (frame mod groups)

   and two frames collide in the external cache iff they share a bin.
   Mask rows must therefore not touch bits below [group_bits] (the
   group index is positional, exactly as in the unsliced cache), and
   the rows must be linearly independent over GF(2) so each slice gets
   an equal share of frames.

   The [Identity] preset places the slice bits directly above the group
   bits, making bin = frame mod n_colors — byte-identical to the
   classic color mapping.  The interesting presets mix in frame bits
   *above* the color horizon: a bijective remap confined to the low
   log2(n_colors) bits cannot change the collision structure, so only
   hashes that reach higher bits actually break §5.2 coloring. *)

module Bits = Pcolor_util.Bits

type spec =
  | Identity  (** slice = the frame bits just above the group bits *)
  | Xor_fold  (** each slice bit XORs three frame bits, stride [n_slices] *)
  | Sandybridge  (** the published Sandy-Bridge-like mask pair, re-based *)
  | Masks of int array  (** explicit mask rows over frame bits (tests/QCheck) *)

type t = {
  spec : spec;
  name : string;
  masks : int array;  (* slice_bits rows; row i yields slice-index bit i *)
  slice_bits : int;
  group_bits : int;
  group_mask : int;
}

let spec_to_string = function
  | Identity -> "identity"
  | Xor_fold -> "xor-fold"
  | Sandybridge -> "sandybridge"
  | Masks m ->
    "masks:"
    ^ String.concat "," (List.map (Printf.sprintf "0x%x") (Array.to_list m))

let spec_of_string s =
  match s with
  | "identity" -> Ok Identity
  | "xor-fold" | "xor_fold" -> Ok Xor_fold
  | "sandybridge" -> Ok Sandybridge
  | _ ->
    let prefix = "masks:" in
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      try
        let rows =
          String.sub s pl (String.length s - pl)
          |> String.split_on_char ','
          |> List.map (fun m -> int_of_string (String.trim m))
        in
        Ok (Masks (Array.of_list rows))
      with _ -> Error (Printf.sprintf "cannot parse mask list in %S" s)
    else
      Error
        (Printf.sprintf
           "unknown LLC hash %S (expected identity, xor-fold, sandybridge or masks:0x..,..)"
           s)

(* ---- GF(2) linear algebra on mask rows ---- *)

(* [rank rows] is the GF(2) rank of the row set (Gaussian elimination
   on int bitsets). *)
let rank rows =
  let rows = Array.copy rows in
  let n = Array.length rows in
  let r = ref 0 in
  for i = 0 to n - 1 do
    if rows.(i) <> 0 then begin
      let pivot = rows.(i) land -rows.(i) in
      (* lowest set bit *)
      for j = 0 to n - 1 do
        if j <> i && rows.(j) land pivot <> 0 then rows.(j) <- rows.(j) lxor rows.(i)
      done;
      incr r
    end
  done;
  !r

(* [canonical rows] is the unique reduced-row-echelon form of the row
   space: pivot columns chosen lowest-bit-first, rows sorted by pivot.
   Two full-rank hashes induce the same frame partition iff their row
   spaces coincide, i.e. iff their canonical forms are equal — this is
   what the probe self-test compares, since a conflict oracle can only
   observe the partition, never the row labels. *)
let canonical rows =
  let rows = Array.to_list rows |> List.filter (fun r -> r <> 0) |> Array.of_list in
  let n = Array.length rows in
  let used = Array.make n false in
  let pivots = ref [] in
  (* columns = bits, scanned lowest-first; later eliminations keep
     rewriting already-picked rows, so collect indices and read the
     final row values only after the sweep *)
  let all = Array.fold_left ( lor ) 0 rows in
  let bit = ref 0 in
  while all lsr !bit <> 0 do
    let pivot = 1 lsl !bit in
    let i = ref (-1) in
    for j = 0 to n - 1 do
      if !i < 0 && (not used.(j)) && rows.(j) land pivot <> 0 then i := j
    done;
    if !i >= 0 then begin
      let p = !i in
      used.(p) <- true;
      for j = 0 to n - 1 do
        if j <> p && rows.(j) land pivot <> 0 then rows.(j) <- rows.(j) lxor rows.(p)
      done;
      pivots := p :: !pivots
    end;
    incr bit
  done;
  List.rev !pivots |> List.map (fun p -> rows.(p)) |> Array.of_list

(* ---- preset construction ---- *)

(* Published Sandy-Bridge slice-hash bit offsets (PAPERS.md), re-based
   so the lowest tap lands on the first frame bit above the group bits
   (the paper's machine has no bit 17 to key on; the *shape* of the
   mask pair — which relative bits participate — is what we model). *)
let sandybridge_offsets =
  [| [ 0; 1; 3; 5; 7; 8; 9; 10; 11; 13; 15 ]; [ 1; 2; 4; 6; 8; 10; 12; 13; 14; 15 ] |]

let preset_masks spec ~slice_bits ~group_bits =
  match spec with
  | Identity -> Array.init slice_bits (fun i -> 1 lsl (group_bits + i))
  | Xor_fold ->
    (* slice bit i = parity of frame bits g+i, g+i+s, g+i+2s: the
       identity tap keeps the matrix full-rank while the two higher
       taps fold in bits beyond the color horizon. *)
    Array.init slice_bits (fun i ->
        let tap j = 1 lsl (group_bits + i + (j * slice_bits)) in
        tap 0 lor tap 1 lor tap 2)
  | Sandybridge ->
    if slice_bits > Array.length sandybridge_offsets then
      invalid_arg "Ahash: sandybridge preset defines at most 2 slice bits (4 slices)";
    Array.init slice_bits (fun i ->
        List.fold_left (fun m o -> m lor (1 lsl (group_bits + o))) 0 sandybridge_offsets.(i))
  | Masks m ->
    if Array.length m <> slice_bits then
      invalid_arg
        (Printf.sprintf "Ahash: %d mask rows for %d slice bits" (Array.length m) slice_bits);
    Array.copy m

(** [resolve ~spec ~slice_bits ~group_bits] materializes the hash for a
    concrete geometry, checking that every mask row stays above the
    group bits and that the rows are linearly independent over GF(2)
    (a rank-deficient hash would leave slices unreachable).  *)
let resolve spec ~slice_bits ~group_bits =
  let masks = preset_masks spec ~slice_bits ~group_bits in
  let group_mask = (1 lsl group_bits) - 1 in
  Array.iteri
    (fun i m ->
      if m = 0 then invalid_arg (Printf.sprintf "Ahash: mask row %d is zero" i);
      if m land group_mask <> 0 then
        invalid_arg
          (Printf.sprintf "Ahash: mask row %d (0x%x) touches group bits (< %d)" i m group_bits))
    masks;
  if rank masks <> slice_bits then
    invalid_arg
      (Printf.sprintf "Ahash: mask rows are rank-deficient (%d < %d)" (rank masks) slice_bits);
  { spec; name = spec_to_string spec; masks; slice_bits; group_bits; group_mask }

let name t = t.name

let masks t = Array.copy t.masks

let group_bits t = t.group_bits

let n_slices t = 1 lsl t.slice_bits

let groups t = 1 lsl t.group_bits

(* ---- evaluation (hot path: one call per external-cache event on a
   multi-slice machine; allocation-free) ---- *)

(* Branch-free XOR-fold: each step folds the upper half of the live
   bits onto the lower half, so after six steps bit 0 holds the XOR of
   all 63 bits — constant time, whatever the highest tapped bit. *)
let[@inline] parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1

(** [slice_of t frame] is the slice index of a physical frame. *)
let slice_of t frame =
  let s = ref 0 in
  for i = 0 to t.slice_bits - 1 do
    s := !s lor (parity (frame land Array.unsafe_get t.masks i) lsl i)
  done;
  !s

(** [bin_of t frame] is the true conflict bin: slice index in the high
    bits, group (frame mod groups) in the low bits.  Bins number
    [n_slices * groups = n_colors]; under [Identity] this is exactly
    [frame mod n_colors]. *)
let bin_of t frame = (slice_of t frame lsl t.group_bits) lor (frame land t.group_mask)

(** [same_partition a b] — do two resolved hashes induce the same frame
    partition?  True iff geometry matches and the canonical (RREF) forms
    of the mask row spaces are equal. *)
let same_partition a b =
  a.slice_bits = b.slice_bits && a.group_bits = b.group_bits
  && canonical a.masks = canonical b.masks

(* ---- rendering (pcolor probe) ---- *)

(** [render_matrix ~masks ~group_bits] draws mask rows as frame-bit tap
    lists, one slice-index bit per line. *)
let render_matrix ~masks ~group_bits =
  let b = Buffer.create 256 in
  Array.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf "  slice bit %d = XOR of frame bits {%s}   (mask 0x%x)\n" i
           (String.concat ", " (List.map string_of_int (Bits.bits_to_list m)))
           m))
    masks;
  Buffer.add_string b
    (if group_bits = 0 then "  group bits: none (the hash decides the whole bin)\n"
     else
       Printf.sprintf "  group bits: frame bits 0..%d (set-within-slice, positional)\n"
         (group_bits - 1));
  Buffer.contents b
