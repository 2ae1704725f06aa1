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
    counts live in {!Pcolor_util.Itab} tables (single-probe [add]
    upserts) and flat arrays.

    Mapping frames back to virtual pages, source arrays and §5.2
    coloring decisions needs the kernel page table and the colorer's
    placement info, which live above this library — see
    [Pcolor_runtime.Audit]. *)

module Itab = Pcolor_util.Itab

(* Eviction pairs pack two frame numbers into one key.  31 bits per
   frame bounds physical memory at 2^31 pages — far beyond any simulated
   geometry — while keeping the packed key a non-negative OCaml int. *)
let pair_bits = 31

let pair_limit = 1 lsl pair_bits

type t = {
  n_colors : int;
  n_classes : int;
  pairs : Itab.t; (* (victim frame << 31) | evictor frame -> count *)
  set_misses : Itab.t; (* external-cache set -> replacement-miss count *)
  frame_class : Itab.t; (* (frame << 3) | class index -> count *)
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
    pairs = Itab.create ~capacity:1024 ();
    set_misses = Itab.create ~capacity:1024 ();
    frame_class = Itab.create ~capacity:1024 ();
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
  Itab.add t.frame_class ((frame lsl 3) lor cls) 1;
  t.color_class.(((frame mod t.n_colors) * t.n_classes) + cls) <-
    t.color_class.(((frame mod t.n_colors) * t.n_classes) + cls) + 1;
  if replacement then begin
    Itab.add t.set_misses set 1;
    if victim_frame >= 0 && victim_frame < pair_limit && frame < pair_limit then
      Itab.add t.pairs ((victim_frame lsl pair_bits) lor frame) 1
  end

(** [reset t] clears every table — the machine calls this when warm-up
    statistics are discarded, keeping attribution aligned with the
    measured pass. *)
let reset t =
  Itab.reset t.pairs;
  Itab.reset t.set_misses;
  Itab.reset t.frame_class;
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
  Itab.fold (fun k c acc -> (k, c) :: acc) t.pairs []
  |> sorted_desc
  |> List.map (fun (k, c) -> (k lsr pair_bits, k land (pair_limit - 1), c))

(** [distinct_pairs t] is the number of distinct eviction pairs seen. *)
let distinct_pairs t = Itab.length t.pairs

(** [sets t] is every (cache set, replacement-miss count), hottest
    first. *)
let sets t = Itab.fold (fun k c acc -> (k, c) :: acc) t.set_misses [] |> sorted_desc

(** [frames t] is every (frame, per-class counts) with at least one
    miss, ordered by total misses descending (ties by frame number). *)
let frames t =
  let tbl = Hashtbl.create 256 in
  Itab.fold
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
