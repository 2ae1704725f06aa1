(** Hash-probe self-test (DESIGN §16): reverse-engineers the active
    slice hash of a hashed/sliced external cache from observed eviction
    behaviour alone, the way microarchitectural slice-hash recovery
    works on real silicon — no peeking at the configured matrix.

    The probe treats a standalone {!Pcolor_memsim.Slice} as a black box
    exposing only [access]/[flush]/[misses].  Its primitive is the
    conflict oracle [collide x y]: do probe frames [x lsl group_bits]
    and [y lsl group_bits] map to the same true conflict bin?  Probe
    frames keep their group bits zero, so (a) their local cache set is
    the same fixed set in every slice — the set-index bits of a frame
    are exactly its group bits — and (b) bin equality degenerates to
    slice equality.  The oracle then plays the classic eviction-set
    game: load [fx], walk an associativity-sized eviction set of [fy]'s
    bin (members differ only in frame bits at or above
    [group_bits + window], which the hash is assumed not to tap), and
    re-access [fx]; a miss means the eviction set lives in [fx]'s
    set — same slice.

    The slice hash is GF(2)-linear in the frame bits and sends frame 0
    to slice 0, so [collide u 0] decides [h u = 0] and membership
    queries compose by XOR.  Recovery is then textbook matrix learning:
    scan window bits low to high; for bit [b], search the (at most
    [n_slices]) XOR-combinations of the pivot bits found so far for one
    whose image matches [h (1 lsl b)] — if found, record the
    combination as [b]'s label; if none matches, [b]'s image is
    linearly independent and [b] becomes a new pivot.  The labels are
    precisely a mask matrix [h'] with [h = M . h'] for some invertible
    [M], i.e. [h'] induces the same frame partition as the hidden hash;
    {!Pcolor_memsim.Ahash.canonical} makes the comparison exact. *)

module Config = Pcolor_memsim.Config
module Slice = Pcolor_memsim.Slice
module Ahash = Pcolor_memsim.Ahash
module Bits = Pcolor_util.Bits

(** Result of a recovery: mask rows over physical frame bits (already
    shifted up by [group_bits], directly comparable to
    {!Pcolor_memsim.Ahash.masks}), the implied slice count, and probe
    accounting. *)
type recovery = {
  masks : int array;
  n_slices : int;  (** [2 ^ Array.length masks] *)
  group_bits : int;
  window : int;  (** frame bits [group_bits .. group_bits+window-1] probed *)
  tests : int;  (** conflict-oracle invocations *)
}

let default_window = 16

(** [oracle slice ~assoc ~page_bits ~group_bits ~window x y] is the
    conflict oracle: [true] iff probe frames [x lsl group_bits] and
    [y lsl group_bits] land in the same slice.  [x <> y] required (a
    frame trivially collides with itself but the eviction set would
    contain it and defeat the measurement). *)
let oracle slice ~assoc ~page_bits ~group_bits ~window x y =
  if x = y then invalid_arg "Probe.oracle: x = y";
  let addr_of frame = frame lsl page_bits in
  let fx = x lsl group_bits and fy = y lsl group_bits in
  Slice.flush slice;
  ignore (Slice.access slice ~addr:(addr_of fx) ~write:false);
  for j = 0 to assoc - 1 do
    (* an eviction set for fy's bin: same slice, same (fixed) local
       set — the j offsets sit above the probed window, untouched by
       the hash *)
    let f = fy lor (j lsl (group_bits + window)) in
    ignore (Slice.access slice ~addr:(addr_of f) ~write:false)
  done;
  let before = Slice.misses slice in
  ignore (Slice.access slice ~addr:(addr_of fx) ~write:false);
  Slice.misses slice > before

(** [max_window cfg] is the widest probe window whose addresses fit in
    a non-negative OCaml int: page bits, group bits, the window and the
    eviction-set offsets above it stack up to [Sys.int_size - 1] bits. *)
let max_window (cfg : Config.t) =
  Sys.int_size - 1
  - Bits.log2 cfg.Config.page_size
  - Ahash.group_bits (Config.resolved_hash cfg)
  - Bits.log2 cfg.Config.l2.Config.assoc

(** [recover ?window cfg] builds a fresh standalone slice cache from
    [cfg]'s external-cache geometry (the configured hash is inside the
    black box) and recovers the hash from conflicts alone. *)
let recover ?(window = default_window) (cfg : Config.t) =
  if window < 1 || window > max_window cfg then
    invalid_arg (Printf.sprintf "Probe.recover: window %d outside 1..%d" window (max_window cfg));
  let hash = Config.resolved_hash cfg in
  let page_bits = Bits.log2 cfg.Config.page_size in
  let group_bits = Ahash.group_bits hash in
  let slice = Slice.create cfg.Config.l2 ~n_slices:cfg.Config.l2_slices ~hash ~page_bits in
  let assoc = cfg.Config.l2.Config.assoc in
  let tests = ref 0 in
  let collide x y =
    incr tests;
    oracle slice ~assoc ~page_bits ~group_bits ~window x y
  in
  (* pivot bits whose images are linearly independent, oldest first *)
  let pivots = ref [] in
  (* per window bit: the pivot-index bitmask representing its image *)
  let labels = Array.make window 0 in
  for b = 0 to window - 1 do
    let c = 1 lsl b in
    let ps = Array.of_list !pivots in
    let np = Array.length ps in
    let rec find s =
      if s >= 1 lsl np then None
      else begin
        let v = ref c in
        for i = 0 to np - 1 do
          if s land (1 lsl i) <> 0 then v := !v lxor (1 lsl ps.(i))
        done;
        (* !v <> 0: c is a bit none of the (lower) pivots carry *)
        if collide !v 0 then Some s else find (s + 1)
      end
    in
    match find 0 with
    | Some s -> labels.(b) <- s
    | None ->
      labels.(b) <- 1 lsl np;
      pivots := !pivots @ [ b ]
  done;
  let ps = Array.of_list !pivots in
  let k = Array.length ps in
  let masks = Array.make k 0 in
  for b = 0 to window - 1 do
    for i = 0 to k - 1 do
      if labels.(b) land (1 lsl i) <> 0 then masks.(i) <- masks.(i) lor (1 lsl b)
    done
  done;
  let masks = Array.map (fun m -> m lsl group_bits) masks in
  { masks; n_slices = 1 lsl k; group_bits; window; tests = !tests }

(** [check cfg recovery] compares a recovery against [cfg]'s configured
    hash: same slice count and same canonical row space (the unique
    partition-preserving normal form).  [Error] carries a rendered
    explanation. *)
let check (cfg : Config.t) (r : recovery) =
  let configured = Config.resolved_hash cfg in
  if r.n_slices <> Ahash.n_slices configured then
    Error
      (Printf.sprintf "recovered %d slices, configured %d" r.n_slices
         (Ahash.n_slices configured))
  else
    match
      Ahash.resolve (Ahash.Masks r.masks)
        ~slice_bits:(if r.n_slices = 1 then 0 else Bits.log2 r.n_slices)
        ~group_bits:r.group_bits
    with
    | exception Invalid_argument msg -> Error ("recovered matrix is degenerate: " ^ msg)
    | recovered ->
      if Ahash.same_partition recovered configured then Ok ()
      else
        Error
          (Printf.sprintf "partition mismatch:\nrecovered:\n%s\nconfigured:\n%s"
             (Ahash.render_matrix ~masks:(Ahash.canonical r.masks) ~group_bits:r.group_bits)
             (Ahash.render_matrix
                ~masks:(Ahash.canonical (Ahash.masks configured))
                ~group_bits:(Ahash.group_bits configured)))

(** [self_test ?window cfg] recovers and checks in one step — the CI
    gate ([pcolor probe] renders the result). *)
let self_test ?window (cfg : Config.t) =
  let r = recover ?window cfg in
  match check cfg r with Ok () -> Ok r | Error e -> Error (r, e)

(** [render r] draws the recovered matrix for the CLI. *)
let render (r : recovery) =
  Printf.sprintf "recovered %d slice(s), %d mask row(s), %d conflict tests\n%s" r.n_slices
    (Array.length r.masks) r.tests
    (Ahash.render_matrix ~masks:r.masks ~group_bits:r.group_bits)
