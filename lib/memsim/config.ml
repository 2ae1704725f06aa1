(** Machine configuration: the geometry and timing of the simulated
    multiprocessor.

    The base configuration mirrors the paper's SimOS setup (§3.2): 400 MHz
    single-issue R4400-class CPUs, 32 KB 2-way virtually-indexed on-chip
    data caches, a physically-indexed external cache (1 MB direct-mapped
    in the base config; 2-way and 4 MB variants in Figure 7), 128-byte
    external lines, 4 KB pages, a 1.2 GB/s split-transaction bus, 500 ns
    memory latency and 750 ns dirty-remote latency.  The AlphaServer
    validation configuration (§7) uses 8 CPUs and 4 MB direct-mapped
    external caches. *)

type cache_geom = {
  size : int;   (** total bytes; must be a power of two *)
  assoc : int;  (** ways; power of two *)
  line : int;   (** line size in bytes; power of two *)
}

type t = {
  name : string;
  n_cpus : int;
  clock_mhz : int;          (** CPU clock, used to convert ns to cycles *)
  page_size : int;          (** bytes *)
  l1 : cache_geom;          (** on-chip data cache, virtually indexed *)
  l2 : cache_geom;          (** external cache, physically indexed *)
  tlb_entries : int;
  l2_hit_cycles : int;      (** stall for an on-chip miss that hits in L2 *)
  mem_cycles : int;         (** L2 miss serviced by memory (500 ns) *)
  remote_cycles : int;      (** L2 miss serviced dirty from another CPU (750 ns) *)
  tlb_miss_cycles : int;    (** kernel time to service a TLB refill *)
  page_fault_cycles : int;  (** kernel time to service a page fault *)
  bus_bytes_per_cycle : float; (** bus bandwidth in bytes per CPU cycle *)
  upgrade_bus_cycles : int; (** bus occupancy of a shared->exclusive upgrade *)
  max_outstanding_prefetches : int; (** paper: 4; a 5th prefetch stalls *)
  l2_slices : int;          (** external-cache slices; power of two, ≤ n_colors *)
  l2_hash : Ahash.spec;     (** slice-index hash over physical frame bits *)
}

let check_geom g =
  if not (Pcolor_util.Bits.is_pow2 g.size) then invalid_arg "cache size not a power of two";
  if not (Pcolor_util.Bits.is_pow2 g.assoc) then invalid_arg "cache assoc not a power of two";
  if not (Pcolor_util.Bits.is_pow2 g.line) then invalid_arg "cache line not a power of two";
  if g.size < g.assoc * g.line then invalid_arg "cache smaller than one set"

(** [max_cpus] bounds every machine: twice the paper's largest (16
    CPUs).  CPU sets are int bitmasks (the directory's valid mask,
    [Machine]'s invalidation fan-out, CDPC's segment owners), and with
    at most 32 CPUs and 128-byte L2 lines a directory line's whole state
    fits one immediate int: 32 valid bits + 6 writer bits + 1 dirty bit
    + 16 written-word bits = 55 bits. *)
let max_cpus = 32

(** [validate t] checks all geometric invariants; raises
    [Invalid_argument] on nonsense configurations.  Returns [t]. *)
let validate t =
  check_geom t.l1;
  check_geom t.l2;
  if not (Pcolor_util.Bits.is_pow2 t.page_size) then invalid_arg "page size not a power of two";
  if t.n_cpus <= 0 then invalid_arg "need at least one CPU";
  if t.n_cpus > max_cpus then invalid_arg (Printf.sprintf "more than %d CPUs" max_cpus);
  if t.l2.line > 128 then invalid_arg "L2 line longer than 128 bytes";
  if t.page_size < t.l2.line then invalid_arg "page smaller than an L2 line";
  if not (Pcolor_util.Bits.is_pow2 t.l2_slices) then
    invalid_arg "l2_slices not a positive power of two";
  let nc = t.l2.size / (t.page_size * t.l2.assoc) in
  if t.l2_slices > nc then invalid_arg "more L2 slices than page colors";
  (* materialize the hash once to surface bad specs (rank-deficient or
     group-bit-touching masks) at configuration time *)
  ignore
    (Ahash.resolve t.l2_hash
       ~slice_bits:(Pcolor_util.Bits.log2 t.l2_slices)
       ~group_bits:(Pcolor_util.Bits.log2 (nc / t.l2_slices)));
  t

(** [resolved_hash t] materializes the configured slice hash for this
    geometry (group bits = log2 (n_colors / l2_slices)). *)
let resolved_hash t =
  let nc = t.l2.size / (t.page_size * t.l2.assoc) in
  Ahash.resolve t.l2_hash
    ~slice_bits:(Pcolor_util.Bits.log2 t.l2_slices)
    ~group_bits:(Pcolor_util.Bits.log2 (nc / t.l2_slices))

(** [n_colors t] is the number of page colors of the external cache:
    cache size / (page size × associativity) (§2.1). *)
let n_colors t = t.l2.size / (t.page_size * t.l2.assoc)

(** [line_bus_cycles t] is the bus occupancy (in CPU cycles) of one
    L2-line transfer at the configured bandwidth. *)
let line_bus_cycles t =
  int_of_float (Float.round (float_of_int t.l2.line /. t.bus_bytes_per_cycle))

(** The paper's base SimOS configuration: 1 MB direct-mapped external
    cache (§3.2), parameterized by CPU count. *)
let sgi_base ?(n_cpus = 8) () =
  validate
    {
      name = "sgi-1MB-dm";
      n_cpus;
      clock_mhz = 400;
      page_size = 4096;
      l1 = { size = 32 * 1024; assoc = 2; line = 32 };
      l2 = { size = 1024 * 1024; assoc = 1; line = 128 };
      tlb_entries = 64;
      l2_hit_cycles = 20;
      mem_cycles = 200; (* 500 ns at 400 MHz *)
      remote_cycles = 300; (* 750 ns *)
      tlb_miss_cycles = 40;
      page_fault_cycles = 2500;
      bus_bytes_per_cycle = 3.0; (* 1.2 GB/s at 400 MHz *)
      upgrade_bus_cycles = 6;
      max_outstanding_prefetches = 4;
      l2_slices = 1;
      l2_hash = Ahash.Identity;
    }

(** Figure 7 variant: 1 MB two-way set-associative external cache. *)
let sgi_2way ?(n_cpus = 8) () =
  let b = sgi_base ~n_cpus () in
  validate { b with name = "sgi-1MB-2way"; l2 = { b.l2 with assoc = 2 } }

(** Figure 7 variant: 4 MB direct-mapped external cache. *)
let sgi_4mb ?(n_cpus = 8) () =
  let b = sgi_base ~n_cpus () in
  validate { b with name = "sgi-4MB-dm"; l2 = { b.l2 with size = 4 * 1024 * 1024 } }

(** The §7 validation machine: AlphaServer-8400-like, 8 × 350 MHz CPUs
    with 4 MB direct-mapped external caches. *)
let alphaserver ?(n_cpus = 8) () =
  validate
    {
      name = "alphaserver-4MB-dm";
      n_cpus;
      clock_mhz = 350;
      page_size = 8192;
      l1 = { size = 8 * 1024; assoc = 1; line = 32 };
      l2 = { size = 4 * 1024 * 1024; assoc = 1; line = 64 };
      tlb_entries = 64;
      l2_hit_cycles = 18;
      mem_cycles = 180;
      remote_cycles = 280;
      tlb_miss_cycles = 35;
      page_fault_cycles = 2200;
      bus_bytes_per_cycle = 4.5; (* ~1.6 GB/s at 350 MHz *)
      upgrade_bus_cycles = 6;
      max_outstanding_prefetches = 4;
      l2_slices = 1;
      l2_hash = Ahash.Identity;
    }

(** The machine models by the name [--machine], tape headers and the
    bench harness use: the base machine, Figure 7's two variants and
    the §7 validation machine. *)
let models =
  [ ("sgi", sgi_base); ("sgi-2way", sgi_2way); ("sgi-4mb", sgi_4mb); ("alpha", alphaserver) ]

(** [scale t factor] shrinks both cache levels by [factor] (a power of
    two), keeping page and line sizes fixed.  Workload data sets are
    scaled by the same factor so the dataset-to-aggregate-cache ratio —
    which determines every crossover in the paper — is preserved while
    simulation cost drops.  The color count shrinks with the cache. *)
let scale t factor =
  if factor <= 0 || not (Pcolor_util.Bits.is_pow2 factor) then
    invalid_arg "Config.scale: factor must be a positive power of two";
  if factor = 1 then t
  else begin
    let shrink g = { g with size = max (g.assoc * g.line) (g.size / factor) } in
    let l2 = shrink t.l2 in
    (* Keep at least two colors so page mapping still matters. *)
    if l2.size / (t.page_size * l2.assoc) < 2 then
      invalid_arg "Config.scale: factor too large, fewer than 2 colors left";
    validate
      {
        t with
        name = Printf.sprintf "%s/scale%d" t.name factor;
        l1 = shrink t.l1;
        l2;
      }
  end
