(** Precompiled affine walkers: per-(nest, cpu-range) reference
    generators that stream run-coalesced records of packed
    [(vaddr, write, prefetch-delta)] entries into reusable flat
    [int array] batches — reference generation split from consumption,
    byte-identical to the interpreter's emission order. *)

(** A reusable batch of run records ({!fill_runs} layout).  A reference
    is packed as [(vaddr lsl 1) lor write_bit] followed by its
    prefetch-vaddr delta ([0] = no prefetch, positive = issue to
    [vaddr + delta] before the access). *)
type batch = { data : int array; mutable len : int }

(** [create_batch ?capacity_refs ()] allocates a batch of
    [2 × capacity_refs] ints (default 4096 references' worth). *)
val create_batch : ?capacity_refs:int -> unit -> batch

(** [reset_batch b] empties the batch without freeing it. *)
val reset_batch : batch -> unit

(** [pack ~vaddr ~write] is the packed address word (sign-preserving:
    [pack ~vaddr ~write asr 1 = vaddr] for any int that fits 62
    bits). *)
val pack : vaddr:int -> write:bool -> int

(** Upper bound on a single run record's repeat [count]: every
    producer ({!fill_runs}, the {!Btrace} writer) splits longer runs and
    every consumer ({!Pcolor_memsim.Machine.consume_runs}, the trace
    reader) rejects larger counts, so bulk arithmetic stays bounded even
    against a hostile tape. *)
val max_run_count : int

type t

(** [create ~nest ~plan ~lo0 ~hi0 ~l1_line_bits ~l2_line_bits] compiles
    one CPU's share of [nest] (depth-0 iterations [\[lo0, hi0)]):
    per-reference byte strides for every depth, resolved prefetch plan
    (ahead bytes and one-per-line dedup state), initial addresses.
    [l1_line_bits] bounds run lengths ({!fill_runs}); [l2_line_bits] is
    the prefetch dedup granularity. *)
val create :
  nest:Ir.nest ->
  plan:Prefetcher.nest_plan ->
  lo0:int ->
  hi0:int ->
  l1_line_bits:int ->
  l2_line_bits:int ->
  t

(** [nrefs t] / [instr_per_iter t] / [extra_onchip_stall t] are the
    per-innermost-iteration constants the consume loop needs
    ([instr_per_iter = body_instr + 2 × nrefs], as the interpreter
    charges). *)
val nrefs : t -> int

val instr_per_iter : t -> int

val extra_onchip_stall : t -> int

(** [finished t] is true once the iteration space is exhausted. *)
val finished : t -> bool

(** [strides t] is the per-reference innermost byte stride vector —
    what a consumer needs to reconstruct run-tail addresses.  The array
    is the walker's own (do not mutate). *)
val strides : t -> int array

(** [fill_runs t b] appends run-coalesced records ([1 + 2 × nrefs] ints
    each: a repeat [count] followed by one packed head group) to [b]
    until full or exhausted; returns [true] when done.  A count of [g]
    means the group repeats [g] times with every reference advancing by
    its innermost stride per repeat; [g] is bounded so that no reference
    crosses its L1 line and no prefetch target crosses its L2 line
    inside the run (so tail groups add no event beyond L1 hits, and the
    per-line dedup provably suppresses every tail prefetch).  Resumable
    and allocation-free. *)
val fill_runs : t -> batch -> bool

(** [validate_bounds nest ~lo0 ~hi0] proves every reference in bounds
    over the whole restricted iteration space in one pre-pass (affine
    extremes are attained at corners, so the {!Ir.min_max_index} range
    is exact).  Raises [Invalid_argument] on the first violation. *)
val validate_bounds : Ir.nest -> lo0:int -> hi0:int -> unit
