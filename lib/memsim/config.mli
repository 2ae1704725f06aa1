(** Machine configuration: geometry and timing of the simulated
    multiprocessor (the paper's §3.2 SimOS setup and the §7 AlphaServer
    validation machine). *)

type cache_geom = {
  size : int;  (** total bytes; power of two *)
  assoc : int;  (** ways; power of two *)
  line : int;  (** line size in bytes; power of two *)
}

type t = {
  name : string;
  n_cpus : int;
  clock_mhz : int;  (** CPU clock, converts ns to cycles *)
  page_size : int;  (** bytes *)
  l1 : cache_geom;  (** on-chip data cache, virtually indexed *)
  l2 : cache_geom;  (** external cache, physically indexed *)
  tlb_entries : int;
  l2_hit_cycles : int;  (** stall for an on-chip miss that hits in L2 *)
  mem_cycles : int;  (** L2 miss serviced by memory (500 ns) *)
  remote_cycles : int;  (** L2 miss serviced dirty from another CPU (750 ns) *)
  tlb_miss_cycles : int;  (** kernel time for a TLB refill *)
  page_fault_cycles : int;  (** kernel time for a page fault *)
  bus_bytes_per_cycle : float;  (** bus bandwidth in bytes per CPU cycle *)
  upgrade_bus_cycles : int;  (** bus occupancy of a shared→exclusive upgrade *)
  max_outstanding_prefetches : int;  (** paper: 4; a 5th prefetch stalls *)
  l2_slices : int;  (** external-cache slices; power of two, ≤ n_colors *)
  l2_hash : Ahash.spec;  (** slice-index hash over physical frame bits *)
}

(** [check_geom g] validates one cache geometry. *)
val check_geom : cache_geom -> unit

(** [max_cpus] (32) is the largest CPU count any machine may have:
    twice the paper's largest, and the width of the int CPU bitmasks
    (directory valid masks, invalidation fan-out, CDPC segment owners).
    With L2 lines of at most 128 bytes a directory line's state then
    fits one immediate int. *)
val max_cpus : int

(** [validate t] checks all geometric invariants, including
    [1 <= n_cpus <= max_cpus] and an L2 line of at most 128 bytes;
    raises [Invalid_argument] on nonsense.  Returns [t]. *)
val validate : t -> t

(** [n_colors t] is the page-color count:
    cache size / (page size × associativity) (§2.1). *)
val n_colors : t -> int

(** [resolved_hash t] materializes the configured slice hash for this
    geometry (slice bits = log2 l2_slices, group bits =
    log2 (n_colors / l2_slices)). *)
val resolved_hash : t -> Ahash.t

(** [line_bus_cycles t] is the bus occupancy (CPU cycles) of one
    L2-line transfer. *)
val line_bus_cycles : t -> int

(** The paper's base SimOS machine: 400 MHz CPUs, 32 KB 2-way on-chip,
    1 MB direct-mapped external cache, 1.2 GB/s bus. *)
val sgi_base : ?n_cpus:int -> unit -> t

(** Figure 7 variant: 1 MB two-way set-associative external cache. *)
val sgi_2way : ?n_cpus:int -> unit -> t

(** Figure 7 variant: 4 MB direct-mapped external cache. *)
val sgi_4mb : ?n_cpus:int -> unit -> t

(** The §7 validation machine: AlphaServer-8400-like, 350 MHz, 4 MB
    direct-mapped external caches, 8 KB pages. *)
val alphaserver : ?n_cpus:int -> unit -> t

(** The machine models by name, as [--machine], tape headers and the
    bench harness spell them: [sgi] ({!sgi_base}), [sgi-2way],
    [sgi-4mb] and [alpha] ({!alphaserver}). *)
val models : (string * (?n_cpus:int -> unit -> t)) list

(** [scale t factor] shrinks both cache levels by [factor] (a power of
    two), keeping page and line sizes fixed; workloads scale their data
    sets by the same factor, preserving every crossover.  Raises
    [Invalid_argument] if fewer than 2 colors would remain. *)
val scale : t -> int -> t
