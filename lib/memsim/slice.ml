(* Multi-slice external cache (DESIGN §16).

   The physical external cache is split into [n_slices] equal slices,
   each an ordinary {!Cache} of 1/n_slices the size; a reference is
   routed to the slice selected by the {!Ahash} of its physical frame
   number.  Because the hash reads only frame bits, every line of a
   page lands in the same slice — pages remain the coloring unit, the
   machine's shadow/directory layers need no changes, and the per-slice
   caches keep full line numbers as tags so the existing allocation-free
   [Cache] hot path is reused verbatim.

   With [n_slices = 1] the single slice *is* today's external cache:
   creation takes the identity route, and every operation short-circuits
   the hash (one branch), so the classic configuration stays
   byte-identical — golden-gated in CI.

   Set numbering for attribution: global set id =
   [slice * sets_per_slice + local set], so `pcolor explain` tables keep
   a single flat set axis whose size equals the unsliced cache's set
   count.  For one slice this is exactly [Cache.set_of_line]. *)

type t = {
  slices : Cache.t array;
  hash : Ahash.t;
  n_slices : int;
  page_line_bits : int;  (* log2 (page_size / line) : line -> frame shift *)
  local_sets : int;
}

(** [create geom ~n_slices ~hash ~page_bits] splits [geom] into
    [n_slices] equal slices routed by [hash].  [page_bits] is log2 of
    the page size (the hash input is [addr lsr page_bits]). *)
let create (g : Config.cache_geom) ~n_slices ~hash ~page_bits =
  if n_slices < 1 || not (Pcolor_util.Bits.is_pow2 n_slices) then
    invalid_arg "Slice.create: n_slices must be a positive power of two";
  if Ahash.n_slices hash <> n_slices then
    invalid_arg "Slice.create: hash resolved for a different slice count";
  let sg = { g with Config.size = g.Config.size / n_slices } in
  Config.check_geom sg;
  let slices = Array.init n_slices (fun _ -> Cache.create sg) in
  {
    slices;
    hash;
    n_slices;
    page_line_bits = page_bits - Pcolor_util.Bits.log2 g.Config.line;
    local_sets = Cache.n_sets slices.(0);
  }

(* Every line of a page routes to the same slice: the hash reads only
   frame bits.  [route] is therefore computed once per page-granular
   event and reused for all of its lines and for every CPU (all CPUs
   share one geometry and one hash). *)
let[@inline] route t addr =
  if t.n_slices = 1 then 0
  else Ahash.slice_of t.hash (Cache.line_of t.slices.(0) addr lsr t.page_line_bits)

let[@inline] slice_of_line t line =
  if t.n_slices = 1 then 0 else Ahash.slice_of t.hash (line lsr t.page_line_bits)

let n_slices t = t.n_slices

let hash t = t.hash

let slice t i = t.slices.(i)

(* ---- Cache API mirror (what Machine routes through) ---- *)

let line_of t addr = Cache.line_of t.slices.(0) addr

let line_bits t = Cache.line_bits t.slices.(0)

(** [n_sets t] is the total set count across slices — equal to the
    unsliced cache's set count for the same geometry. *)
let n_sets t = t.local_sets * t.n_slices

(** [set_of_line t line] is the global set id (slice-major) the line
    indexes into; attribution keys misses by this. *)
let set_of_line t line =
  let s = slice_of_line t line in
  let local = Cache.set_of_line t.slices.(s) line in
  (s * t.local_sets) + local

let access t ~addr ~write = Cache.access t.slices.(route t addr) ~addr ~write

let contains t addr = Cache.contains t.slices.(route t addr) addr

let flush t = Array.iter Cache.flush t.slices

let hits t = Array.fold_left (fun acc c -> acc + Cache.hits c) 0 t.slices

let misses t = Array.fold_left (fun acc c -> acc + Cache.misses c) 0 t.slices

let reset_stats t = Array.iter Cache.reset_stats t.slices

let resident_lines t =
  Array.to_list t.slices |> List.concat_map Cache.resident_lines |> List.sort_uniq compare
