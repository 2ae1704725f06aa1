(** Conflict-attribution engine: turns external-cache miss counters into
    explanations.

    On every external-cache miss the machine reports (class, evictor
    frame, cache set, victim frame); this module accumulates

    - per-(victim frame, evictor frame) eviction-pair counts for
      replacement (conflict/capacity) misses — the raw material of the
      paper's causal story: {e which} pages fight over a set;
    - per-cache-set replacement-miss counts (the set-index-level view,
      cf. the Sandy-Bridge hash-reversal methodology in PAPERS.md);
    - per-frame per-class miss counts (reconciles exactly with the
      {!Pcolor_memsim.Mclass} counters — same call sites);
    - per-color per-class miss counts (color = frame mod n_colors, the
      quantity §5.2 manipulates).

    The obs-off contract of DESIGN §9 holds: detached, the machine pays
    one [option] branch per miss and the hit path is untouched.
    Attached, the record path is allocation-free in the steady state —
    counts live in open-addressing int tables and flat arrays (the same
    discipline as [Pcolor_util.Itab]; that module itself is out of
    reach here because [pcolor_util] already depends on [pcolor_obs]
    for pool metrics, so a minimal insert-only variant is embedded).

    Mapping frames back to virtual pages, source arrays and §5.2
    coloring decisions needs the kernel page table and the colorer's
    placement info, which live above this library — see
    [Pcolor_runtime.Audit]. *)

(* ---- embedded insert-only open-addressing int→int table ----
   Same layout discipline as Pcolor_util.Itab: power-of-two capacity,
   linear probing, -1 sentinel in the key plane, fixed multiplicative
   hash (deterministic, never seeded).  Only [add]/[reset]/[fold] are
   needed, so deletion (and hence backward-shift compaction) is
   omitted. *)
module Tab = struct
  type t = {
    mutable keys : int array; (* -1 = empty; all other entries >= 0 *)
    mutable vals : int array;
    mutable mask : int;
    mutable size : int;
  }

  let[@inline] hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 8

  let create capacity =
    let cap = next_pow2 (max 1 capacity) in
    { keys = Array.make cap (-1); vals = Array.make cap 0; mask = cap - 1; size = 0 }

  let[@inline] probe t key =
    let keys = t.keys in
    let mask = t.mask in
    let i = ref (hash key land mask) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k >= 0
    do
      i := (!i + 1) land mask
    done;
    !i

  let rec add t key delta =
    if key < 0 then invalid_arg "Attrib: negative key";
    let i = probe t key in
    if Array.unsafe_get t.keys i = key then
      Array.unsafe_set t.vals i (Array.unsafe_get t.vals i + delta)
    else if t.size * 4 >= (t.mask + 1) * 3 then begin
      (* grow at 3/4 load, then retry the insert against the new arrays *)
      let old_keys = t.keys and old_vals = t.vals in
      let cap = (t.mask + 1) * 2 in
      t.keys <- Array.make cap (-1);
      t.vals <- Array.make cap 0;
      t.mask <- cap - 1;
      t.size <- 0;
      Array.iteri
        (fun j k ->
          if k >= 0 then begin
            let i = probe t k in
            t.keys.(i) <- k;
            t.vals.(i) <- old_vals.(j);
            t.size <- t.size + 1
          end)
        old_keys;
      add t key delta
    end
    else begin
      Array.unsafe_set t.keys i key;
      Array.unsafe_set t.vals i delta;
      t.size <- t.size + 1
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    Array.fill t.vals 0 (Array.length t.vals) 0;
    t.size <- 0

  let fold f t init =
    let acc = ref init in
    Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
    !acc

  let length t = t.size
end

(* Eviction pairs pack two frame numbers into one key.  31 bits per
   frame bounds physical memory at 2^31 pages — far beyond any simulated
   geometry — while keeping the packed key a non-negative OCaml int. *)
let pair_bits = 31

let pair_limit = 1 lsl pair_bits

type t = {
  n_colors : int;
  n_classes : int;
  pairs : Tab.t; (* (victim frame << 31) | evictor frame -> count *)
  set_misses : Tab.t; (* external-cache set -> replacement-miss count *)
  frame_class : Tab.t; (* (frame << 3) | class index -> count *)
  color_class : int array; (* color * n_classes + class -> count *)
  by_class : int array; (* class -> count (reconciliation spine) *)
}

let create ~n_colors ~n_classes () =
  if n_colors <= 0 then invalid_arg "Attrib.create: n_colors must be positive";
  if n_classes <= 0 || n_classes > 8 then
    invalid_arg "Attrib.create: n_classes must be in 1..8 (3-bit packing)";
  {
    n_colors;
    n_classes;
    pairs = Tab.create 1024;
    set_misses = Tab.create 1024;
    frame_class = Tab.create 1024;
    color_class = Array.make (n_colors * n_classes) 0;
    by_class = Array.make n_classes 0;
  }

let n_colors t = t.n_colors

(** [record t ~cls ~frame ~set ~victim_frame ~replacement] accounts one
    external-cache miss of class index [cls] brought in by a reference
    to physical page [frame] mapping to cache set [set].
    [victim_frame] is the physical page of the evicted line, or [-1]
    when the way was empty; [replacement] marks the conflict/capacity
    classes — only those feed the eviction-pair and per-set tables
    (cold and sharing misses are not placement's fault).  Call this
    from the same site that bumps the {!Pcolor_memsim.Mclass} counter
    so the totals reconcile exactly. *)
let record t ~cls ~frame ~set ~victim_frame ~replacement =
  t.by_class.(cls) <- t.by_class.(cls) + 1;
  Tab.add t.frame_class ((frame lsl 3) lor cls) 1;
  t.color_class.(((frame mod t.n_colors) * t.n_classes) + cls) <-
    t.color_class.(((frame mod t.n_colors) * t.n_classes) + cls) + 1;
  if replacement then begin
    Tab.add t.set_misses set 1;
    if victim_frame >= 0 && victim_frame < pair_limit && frame < pair_limit then
      Tab.add t.pairs ((victim_frame lsl pair_bits) lor frame) 1
  end

(** [reset t] clears every table — the machine calls this when warm-up
    statistics are discarded, keeping attribution aligned with the
    measured pass. *)
let reset t =
  Tab.reset t.pairs;
  Tab.reset t.set_misses;
  Tab.reset t.frame_class;
  Array.fill t.color_class 0 (Array.length t.color_class) 0;
  Array.fill t.by_class 0 (Array.length t.by_class) 0

(** [totals_by_class t] is the per-class miss count — must equal the
    machine's summed {!Pcolor_memsim.Mclass} counters. *)
let totals_by_class t = Array.copy t.by_class

(** [total t] sums every class. *)
let total t = Array.fold_left ( + ) 0 t.by_class

(* Descending by count; ties ascending by key so output order is a
   total order independent of table layout. *)
let sorted_desc l = List.sort (fun (ka, ca) (kb, cb) -> if ca <> cb then compare cb ca else compare ka kb) l

(** [pairs t] is every (victim frame, evictor frame, count) eviction
    pair, hottest first (deterministic order). *)
let pairs t =
  Tab.fold (fun k c acc -> (k, c) :: acc) t.pairs []
  |> sorted_desc
  |> List.map (fun (k, c) -> (k lsr pair_bits, k land (pair_limit - 1), c))

(** [distinct_pairs t] is the number of distinct eviction pairs seen. *)
let distinct_pairs t = Tab.length t.pairs

(** [sets t] is every (cache set, replacement-miss count), hottest
    first. *)
let sets t = Tab.fold (fun k c acc -> (k, c) :: acc) t.set_misses [] |> sorted_desc

(** [frames t] is every (frame, per-class counts) with at least one
    miss, ordered by total misses descending (ties by frame number). *)
let frames t =
  let tbl = Hashtbl.create 256 in
  Tab.fold
    (fun k c () ->
      let frame = k lsr 3 and cls = k land 7 in
      let counts =
        match Hashtbl.find_opt tbl frame with
        | Some a -> a
        | None ->
          let a = Array.make t.n_classes 0 in
          Hashtbl.add tbl frame a;
          a
      in
      counts.(cls) <- counts.(cls) + c)
    t.frame_class ();
  Hashtbl.fold (fun frame counts acc -> (frame, counts) :: acc) tbl []
  |> List.sort (fun (fa, ca) (fb, cb) ->
         let ta = Array.fold_left ( + ) 0 ca and tb = Array.fold_left ( + ) 0 cb in
         if ta <> tb then compare tb ta else compare fa fb)

(** [color_counts t ~color] is the per-class miss counts of one page
    color. *)
let color_counts t ~color =
  Array.init t.n_classes (fun cls -> t.color_class.((color * t.n_classes) + cls))
