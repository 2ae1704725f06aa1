(** Precompiled affine walkers: reference {e generation} split from
    reference {e consumption}.

    The execution engine's interpreter re-derives every reference from
    the nest description on every innermost iteration — per-reference
    plan lookups, bounds branches and trace dispatch on the hot path.  A
    walker instead {e compiles} one (nest, cpu-range) pair once per plan
    step: it resolves the prefetch plan, precomputes per-reference byte
    strides for every loop depth (loop-invariant references simply get a
    zero innermost stride), and then streams run records as packed
    integers into a reusable flat [int array] batch, so the consume
    loop touches nothing but immediate integers.

    A reference is packed as two ints:

    - [(vaddr lsl 1) lor write_bit];
    - the prefetch-vaddr delta: [0] means "no prefetch here"; a
      positive delta [d] means "issue a prefetch to [vaddr + d] before
      this access".  The walker performs the one-prefetch-per-line dedup
      at generation time (the planner's ahead distances are always
      positive, so [0] is unambiguous).

    A run record is a repeat count followed by one such pair per
    reference of the head iteration group ({!fill_runs}).

    Byte identity: expanding a walker's records yields exactly the
    (vaddr, write, prefetch) sequence the interpreter executes, in the
    same order, using the same incremental integer arithmetic — the
    property the QCheck suite pins and the [--engine] byte-identity gate
    enforces end to end. *)

type batch = {
  data : int array; (* run records, [1 + 2 × nrefs] ints each *)
  mutable len : int; (* ints in use; always a multiple of the record size *)
}

(** [create_batch ?capacity_refs ()] allocates a reusable batch
    ([capacity_refs] defaults to 4096 references = 64 KB of ints). *)
let create_batch ?(capacity_refs = 4096) () =
  if capacity_refs < 1 then invalid_arg "Walker.create_batch: capacity_refs < 1";
  { data = Array.make (2 * capacity_refs) 0; len = 0 }

(** [reset_batch b] empties the batch without freeing it. *)
let reset_batch b = b.len <- 0

(** [pack ~vaddr ~write] is the packed address word. *)
let pack ~vaddr ~write = (vaddr lsl 1) lor (if write then 1 else 0)

(* Runs longer than this are split: it bounds the bulk arithmetic any
   consumer performs per record, so a corrupt or hostile trace cannot
   smuggle an absurd repeat count past {!Pcolor_memsim.Machine} or the
   {!Btrace} reader (both validate against the same bound). *)
let max_run_count = 1 lsl 30

type t = {
  nrefs : int;
  depth : int;
  instr_per_iter : int; (* body_instr + 2 × nrefs, like the interpreter *)
  extra_onchip_stall : int;
  lo : int array; (* per-depth loop start: lo0 at depth 0, else 0 *)
  hi : int array; (* per-depth loop bound: hi0 at depth 0, else bounds *)
  idx : int array; (* current iteration vector *)
  vaddr : int array; (* per-ref current byte address *)
  wbit : int array; (* per-ref write bit, pre-shifted into place *)
  step : int array; (* nrefs × depth: bytes per unit step of iv [d] *)
  innermost : int array; (* per-ref innermost byte stride (run tails) *)
  pf_add : int array; (* per-ref prefetch byte delta; 0 = never *)
  prev_line : int array; (* per-ref last prefetched L2 line *)
  line_bits : int; (* L2: prefetch dedup granularity *)
  l1_bits : int; (* L1: run-coalescing granularity *)
  mutable finished : bool;
}

(** [create ~nest ~plan ~lo0 ~hi0 ~l1_line_bits ~l2_line_bits] compiles
    one CPU's share of [nest] (depth-0 iterations [\[lo0, hi0)]) against
    prefetch plan [plan].  Runs once per (nest, cpu-range) per plan
    step; all per-reference state is resolved here so {!fill_runs}
    allocates nothing. *)
let create ~(nest : Ir.nest) ~(plan : Prefetcher.nest_plan) ~lo0 ~hi0 ~l1_line_bits ~l2_line_bits =
  let refs = Array.of_list nest.refs in
  let nrefs = Array.length refs in
  let depth = Array.length nest.bounds in
  let lo = Array.init depth (fun d -> if d = 0 then lo0 else 0) in
  let hi = Array.init depth (fun d -> if d = 0 then hi0 else nest.bounds.(d)) in
  let empty = ref false in
  Array.iteri (fun d l -> if hi.(d) <= l then empty := true) lo;
  let vaddr =
    Array.map
      (fun (r : Ir.ref_) ->
        let e = ref r.offset in
        Array.iteri (fun d c -> e := !e + (c * lo.(d))) r.coeffs;
        r.array.base + (!e * r.array.elem_size))
      refs
  in
  let step = Array.make (max 1 (nrefs * depth)) 0 in
  Array.iteri
    (fun r (rf : Ir.ref_) ->
      for d = 0 to depth - 1 do
        step.((r * depth) + d) <- rf.coeffs.(d) * rf.array.elem_size
      done)
    refs;
  {
    nrefs;
    depth;
    instr_per_iter = nest.body_instr + (2 * nrefs);
    extra_onchip_stall = nest.extra_onchip_stall;
    lo;
    hi;
    idx = Array.copy lo;
    vaddr;
    wbit = Array.map (fun (r : Ir.ref_) -> if r.is_write then 1 else 0) refs;
    step;
    innermost = Array.init nrefs (fun r -> step.((r * depth) + depth - 1));
    pf_add =
      Array.mapi
        (fun r (rf : Ir.ref_) ->
          if plan.(r).Prefetcher.prefetch then plan.(r).Prefetcher.ahead_elems * rf.array.elem_size
          else 0)
        refs;
    prev_line = Array.make (max 1 nrefs) (-1);
    line_bits = l2_line_bits;
    l1_bits = l1_line_bits;
    finished = !empty;
  }

let nrefs t = t.nrefs

let instr_per_iter t = t.instr_per_iter

let extra_onchip_stall t = t.extra_onchip_stall

let finished t = t.finished

let strides t = t.innermost

(* Advance the odometer by one innermost iteration, innermost depth
   first.  The arithmetic mirrors the interpreter's incremental element
   maintenance: one [+step] per non-carry advance, and an exact rewind
   ([- step × travelled]) per carry. *)
let[@inline] advance_one t =
  let depth = t.depth in
  let nrefs = t.nrefs in
  let idx = t.idx in
  let vaddr = t.vaddr in
  let step = t.step in
  let d = ref (depth - 1) in
  let carrying = ref true in
  while !carrying do
    let dd = !d in
    let i = Array.unsafe_get idx dd + 1 in
    if i < Array.unsafe_get t.hi dd then begin
      Array.unsafe_set idx dd i;
      for r = 0 to nrefs - 1 do
        Array.unsafe_set vaddr r
          (Array.unsafe_get vaddr r + Array.unsafe_get step ((r * depth) + dd))
      done;
      carrying := false
    end
    else begin
      let travelled = Array.unsafe_get idx dd - Array.unsafe_get t.lo dd in
      for r = 0 to nrefs - 1 do
        Array.unsafe_set vaddr r
          (Array.unsafe_get vaddr r - (Array.unsafe_get step ((r * depth) + dd) * travelled))
      done;
      Array.unsafe_set idx dd (Array.unsafe_get t.lo dd);
      if dd = 0 then begin
        t.finished <- true;
        carrying := false
      end
      else d := dd - 1
    end
  done

(* Iterations (>= 1) until [va], moving by [s <> 0] bytes per
   iteration, leaves its current [2^bits]-byte aligned block; clamped to
   [limit].  Arithmetic shifts keep the block numbering a floor even for
   negative addresses (synthetic tests use them), so the distance always
   agrees with the consumer's span check. *)
let[@inline] cross_dist ~va ~s ~bits ~limit =
  if s > 0 then begin
    let boundary = ((va asr bits) + 1) lsl bits in
    let d = (boundary - va + s - 1) / s in
    if d < limit then d else limit
  end
  else begin
    let base = (va asr bits) lsl bits in
    let d = ((va - base) / -s) + 1 in
    if d < limit then d else limit
  end

(** [fill_runs t b] appends run-coalesced records to [b] until the batch
    is full or the iteration space is exhausted; returns [true] when the
    walker is done.  Resumable: call again (after consuming and
    {!reset_batch}) to continue exactly where the previous batch
    stopped.  Allocation-free.

    Record layout ([1 + 2 × nrefs] ints per record):

    - [data.(k)] = [count >= 1]: this innermost iteration {e group}
      repeats [count] times, each reference advancing by its innermost
      byte stride ({!strides}) per repeat;
    - [data.(k + 1 + 2r)] / [data.(k + 2 + 2r)] = the packed head-group
      entry and prefetch delta of reference [r].

    [count] is the largest repeat such that the run provably adds no
    observable event beyond bulk L1 hits: it never outruns the innermost
    loop, no reference crosses its L1 line (per-depth byte strides make
    the crossing distance a closed-form constant), and no prefetching
    reference's target [vaddr + delta] crosses its L2 line — so the
    per-reference one-prefetch-per-line dedup provably suppresses every
    tail prefetch and [prev_line] needs no update.  Tail groups are
    therefore pure per-reference L1 hits {e if} the head group leaves
    every line resident — a dynamic property the consumer
    ({!Pcolor_memsim.Machine.consume_runs}) revalidates, falling back to
    per-reference consumption when it fails.  Loop-invariant references
    (stride 0) never constrain the run. *)
let fill_runs t (b : batch) =
  if t.finished then true
  else begin
    let data = b.data in
    let cap = Array.length data in
    let nrefs = t.nrefs in
    let stride = 1 + (2 * nrefs) in
    let depth = t.depth in
    let last = depth - 1 in
    let vaddr = t.vaddr in
    let wbit = t.wbit in
    let pf_add = t.pf_add in
    let prev_line = t.prev_line in
    let step = t.step in
    let idx = t.idx in
    let l2_bits = t.line_bits in
    let l1_bits = t.l1_bits in
    let len = ref b.len in
    while (not t.finished) && !len + stride <= cap do
      let base_k = !len in
      (* emit the head group, folding the run length as we go *)
      let g = ref (Array.unsafe_get t.hi last - Array.unsafe_get idx last) in
      if !g > max_run_count then g := max_run_count;
      for r = 0 to nrefs - 1 do
        let va = Array.unsafe_get vaddr r in
        let k = base_k + 1 + (2 * r) in
        Array.unsafe_set data k ((va lsl 1) lor Array.unsafe_get wbit r);
        let pf = Array.unsafe_get pf_add r in
        let emit =
          if pf = 0 then 0
          else begin
            let pl = (va + pf) lsr l2_bits in
            if pl <> Array.unsafe_get prev_line r then begin
              Array.unsafe_set prev_line r pl;
              pf
            end
            else 0
          end
        in
        Array.unsafe_set data (k + 1) emit;
        (* once the run has collapsed to a single group no further
           reference can shrink it — skip the distance arithmetic *)
        if !g > 1 then begin
          let s = Array.unsafe_get step ((r * depth) + last) in
          if s <> 0 then begin
            let d = cross_dist ~va ~s ~bits:l1_bits ~limit:!g in
            if d < !g then g := d;
            if !g > 1 && pf <> 0 then begin
              let d = cross_dist ~va:(va + pf) ~s ~bits:l2_bits ~limit:!g in
              if d < !g then g := d
            end
          end
        end
      done;
      let count = !g in
      Array.unsafe_set data base_k count;
      len := base_k + stride;
      (* advance the odometer by [count] innermost iterations: bulk-step
         the innermost counter by count − 1, then reuse the exact
         single-step carry advance for the last one *)
      if count > 1 then begin
        let extra = count - 1 in
        Array.unsafe_set idx last (Array.unsafe_get idx last + extra);
        for r = 0 to nrefs - 1 do
          Array.unsafe_set vaddr r
            (Array.unsafe_get vaddr r
            + (Array.unsafe_get step ((r * depth) + last) * extra))
        done
      end;
      advance_one t
    done;
    b.len <- !len;
    t.finished
  end

(** [validate_bounds nest ~lo0 ~hi0] proves every reference of [nest]
    in bounds over the whole (cpu-restricted) iteration space in one
    pre-pass — affine extremes are attained at box corners, so the
    {!Ir.min_max_index} range is exactly the set of visited element
    indices.  Raises [Invalid_argument] like the old per-reference
    check; both engines call this once per (nest, cpu-range) instead of
    branching per reference. *)
let validate_bounds (nest : Ir.nest) ~lo0 ~hi0 =
  List.iteri
    (fun i (r : Ir.ref_) ->
      match Ir.min_max_index r ~bounds:nest.bounds ~lo0 ~hi0 with
      | None -> ()
      | Some (mn, mx) ->
        let extent = Ir.elems r.array in
        if mn < 0 || mx >= extent then
          invalid_arg
            (Printf.sprintf "%s: ref %d to %s out of bounds (elem range [%d, %d], extent %d)"
               nest.label i r.array.aname mn mx extent))
    nest.refs
