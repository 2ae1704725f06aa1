(** Second-chance frame reclaim for a shared pool under multiprogrammed
    pressure: when {!Pcolor_vm.Kernel.translate} finds the pool empty it
    calls back here instead of aborting the run.

    A clock hand sweeps physical frames.  TLB residency is the
    reference bit — a page any CPU still holds a translation for is
    presumed hot, so on first encounter its translations are dropped
    (the "second chance": a genuinely hot page re-enters the TLB at the
    next access and survives the next lap) and the hand moves on; a
    page with no translations left is cold and is evicted through the
    same teardown the recoloring daemon uses — TLB shootdown, cache
    invalidation everywhere, unmap, release.  Two laps bound the sweep,
    so if anything at all is mapped the reclaimer makes progress, and
    {!Pcolor_vm.Kernel.Out_of_frames} is reserved for a genuinely
    unservable working set. *)

module M = Pcolor_memsim.Machine
module Tlb = Pcolor_memsim.Tlb
module Kernel = Pcolor_vm.Kernel
module Frame_pool = Pcolor_vm.Frame_pool

type t = {
  machine : M.t;
  pool : Frame_pool.t;
  kernels : Kernel.t array; (* one address space per job, asid order *)
  batch : int; (* frames to free per invocation *)
  mutable hand : int; (* clock position, a frame number *)
  mutable invocations : int;
  mutable scanned : int; (* frames examined over all invocations *)
  mutable second_chances : int; (* hot pages spared (TLB entries dropped) *)
  mutable evictions : int; (* frames actually freed *)
}

(** [create ~machine ~pool ~kernels ()] builds a reclaimer over every
    job's address space.  [batch] (default 16) is the eviction target
    per invocation — large enough to amortize the sweep, small enough
    to keep evictions near-LRU. *)
let create ?(batch = 16) ~machine ~pool ~kernels () =
  if batch <= 0 then invalid_arg "Reclaim.create: batch";
  {
    machine;
    pool;
    kernels;
    batch;
    hand = 0;
    invocations = 0;
    scanned = 0;
    second_chances = 0;
    evictions = 0;
  }

(* which address space maps [frame]: its index in [kernels], or -1 (a
   frame of the shared pool is mapped by at most one of them) *)
let owner t frame =
  let rec go i =
    if i >= Array.length t.kernels then -1
    else if Pcolor_vm.Page_table.vpage_of (Kernel.page_table t.kernels.(i)) frame >= 0 then i
    else go (i + 1)
  in
  go 0

let tlb_resident t vpage =
  let n = M.n_cpus t.machine in
  let rec go cpu = cpu < n && (Tlb.probe_frame (M.tlb t.machine ~cpu) vpage >= 0 || go (cpu + 1)) in
  go 0

let drop_translations t vpage =
  for cpu = 0 to M.n_cpus t.machine - 1 do
    Tlb.invalidate (M.tlb t.machine ~cpu) vpage
  done

(* Full teardown: shootdown + cache invalidation + unmap + release. *)
let evict t kernel vpage frame =
  drop_translations t vpage;
  M.invalidate_frame_everywhere t.machine ~frame;
  ignore (Kernel.evict kernel ~vpage)

(** [reclaim t ~cpu] frees up to [batch] frames, returning how many it
    freed (0 only when no address space maps anything).  [cpu] is the
    faulting CPU; it is charged the kernel time of the sweep — one
    page-fault quantum for entering the reclaimer plus one TLB-refill
    quantum per shootdown performed on its behalf, the same cost model
    the recoloring daemon uses. *)
let reclaim t ~cpu =
  t.invocations <- t.invocations + 1;
  let cfg = M.config t.machine in
  let total = Frame_pool.total_frames t.pool in
  let freed = ref 0 in
  let shootdowns = ref 0 in
  let steps = ref 0 in
  (* two laps: lap one strips hot pages' translations, lap two meets
     them cold unless they were genuinely re-referenced (nothing runs
     between laps, so lap two is decisive) *)
  while !freed < t.batch && !steps < 2 * total do
    let frame = t.hand in
    t.hand <- (t.hand + 1) mod total;
    incr steps;
    let i = owner t frame in
    if i >= 0 then begin
      let kernel = t.kernels.(i) in
      let vpage = Pcolor_vm.Page_table.vpage_of (Kernel.page_table kernel) frame in
      if tlb_resident t vpage then begin
        drop_translations t vpage;
        incr shootdowns;
        t.second_chances <- t.second_chances + 1
      end
      else begin
        evict t kernel vpage frame;
        incr shootdowns;
        incr freed
      end
    end
  done;
  t.scanned <- t.scanned + !steps;
  t.evictions <- t.evictions + !freed;
  M.kernel t.machine ~cpu (cfg.Pcolor_memsim.Config.page_fault_cycles
                          + (!shootdowns * cfg.Pcolor_memsim.Config.tlb_miss_cycles));
  Logs.debug ~src:Pcolor_obs.Log.src (fun m ->
      m "reclaim on cpu%d: freed %d frames (%d second chances, %d frames scanned)" cpu !freed
        t.second_chances !steps);
  !freed

(** [stats t] is [(invocations, scanned, second_chances, evictions)]. *)
let stats t = (t.invocations, t.scanned, t.second_chances, t.evictions)
