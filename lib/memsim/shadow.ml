(** Fully-associative LRU shadow cache, used to split replacement misses
    into conflict and capacity.

    A reference that misses in the real set-associative cache but would
    have hit in a fully-associative LRU cache of the same total capacity
    is a {e conflict} miss — it exists only because of limited
    associativity and indexing, which is precisely what page coloring
    manipulates.  A miss in both is a {e capacity} miss.

    The shadow is a {!Pcolor_util.Lru} of physical lines, one per CPU,
    probed on every external-cache access; its tables are sized by the
    shadowed cache, not by the physical lines it has seen. *)

module Lru = Pcolor_util.Lru

type t = Lru.t

(* associativity is ignored: the shadow is fully associative *)
let create (g : Config.cache_geom) = Lru.create ~capacity:(g.size / g.line)

let access t line =
  let slot = Lru.find t line in
  if slot >= 0 then Lru.use t slot else ignore (Lru.insert t line);
  slot >= 0

let mem t line = Lru.find t line >= 0

let size = Lru.length

let capacity = Lru.capacity
