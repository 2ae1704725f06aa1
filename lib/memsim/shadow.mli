(** Fully-associative LRU shadow cache with O(1) access, used to split
    replacement misses: a reference that misses in the real
    set-associative cache but hits here is a {e conflict} miss; a miss
    in both is {e capacity}.  It is a {!Pcolor_util.Lru} of physical
    lines, so its memory is sized by the shadowed cache, not by the
    physical lines it has seen. *)

type t

(** [create geom] builds a shadow of the same byte capacity and line
    size as [geom] (associativity ignored: fully associative). *)
val create : Config.cache_geom -> t

(** [access t line] touches [line]: [true] iff it was resident.  Must
    be called on every access to the shadowed cache (each external-cache
    access, not each reference), hit or miss there. *)
val access : t -> int -> bool

(** [mem t line] is a residency probe without LRU effect. *)
val mem : t -> int -> bool

(** [size t] is the current resident-line count. *)
val size : t -> int

(** [capacity t] is the maximum resident-line count. *)
val capacity : t -> int
