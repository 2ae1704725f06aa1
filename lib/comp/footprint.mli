(** Per-processor footprint analysis: the byte intervals each CPU's
    share of each nest can touch.  Drives the CDPC segment computation
    (§5.2 step 1), the Figure 3/5 plots, and the density tests behind
    CDPC's applicability rule (§6.1's su2cor caveat).  Intervals
    over-approximate strided references; {!unit_density} quantifies the
    gap. *)

type interval = { lo : int; hi : int }  (** byte addresses, half-open *)

(** [norm ivs] sorts and coalesces overlapping/adjacent intervals. *)
val norm : interval list -> interval list

(** [total_bytes ivs] sums normalized lengths. *)
val total_bytes : interval list -> int

(** [nest_cpu ?array_id nest ~n_cpus ~cpu] is the CPU's normalized
    footprint for one nest, counting only references to array
    [array_id] when given.  Raises [Invalid_argument] on an unassigned
    array base. *)
val nest_cpu : ?array_id:int -> Ir.nest -> n_cpus:int -> cpu:int -> interval list

(** [program_cpu ?array_id p ~n_cpus ~cpu] unions footprints over the
    steady state: the CPU's whole footprint for Figure 3 and the
    first-touch checks, or its footprint within one array
    ([array_id]) for CDPC's step-1 segment sweep. *)
val program_cpu : ?array_id:int -> Ir.program -> n_cpus:int -> cpu:int -> interval list

(** [pages_of ivs ~page_size] is the sorted virtual pages overlapped. *)
val pages_of : interval list -> page_size:int -> int list

(** [touch_points p ~n_cpus ~page_size] is the Figure 3 data: every
    (vpage, cpu) pair touched in the steady state. *)
val touch_points : Ir.program -> n_cpus:int -> page_size:int -> (int * int) list

(** [unit_density nest r] is the covered fraction of a distributed
    unit, 1.0 when fully dense or undistributed. *)
val unit_density : Ir.nest -> Ir.ref_ -> float

(** [page_dense nest r ~page_size] is CDPC's applicability test:
    per-unit gaps must be smaller than a page. *)
val page_dense : Ir.nest -> Ir.ref_ -> page_size:int -> bool
