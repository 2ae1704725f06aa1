(** Multi-slice external cache: [n_slices] equal {!Cache} slices routed
    by the {!Ahash} of the physical frame number (DESIGN §16).  With one
    slice this is exactly today's external cache — the hash is
    short-circuited and behavior is byte-identical (golden-gated). *)

type t

(** [create geom ~n_slices ~hash ~page_bits] splits [geom] into equal
    slices routed by [hash]; [page_bits] = log2 page size. *)
val create : Config.cache_geom -> n_slices:int -> hash:Ahash.t -> page_bits:int -> t

val n_slices : t -> int

val hash : t -> Ahash.t

(** [slice t i] is slice [i]'s underlying cache. *)
val slice : t -> int -> Cache.t

(** [route t addr] is the index of the slice physical address [addr]
    maps to (0 when there is one slice, without hashing).  Every line
    of a page routes to the same slice, and every CPU's slice set
    shares one geometry and hash, so one route serves a whole
    page-granular event: all of its lines, on every CPU
    ([Cache] operations on [slice t (route t addr)]). *)
val route : t -> int -> int

(** {1 Cache API mirror} — semantics as in {!Cache}, with set ids
    numbered slice-major across slices ([n_sets] equals the unsliced
    cache's set count). *)

val line_of : t -> int -> int

val line_bits : t -> int

val n_sets : t -> int

val set_of_line : t -> int -> int

val access : t -> addr:int -> write:bool -> int

val contains : t -> int -> bool

val flush : t -> unit

val hits : t -> int

val misses : t -> int

val reset_stats : t -> unit

val resident_lines : t -> int list
