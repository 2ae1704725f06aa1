(** The VM kernel: page-fault handling that ties a mapping policy to the
    physical frame pool, exposing the [translate] callback that the
    memory-system simulator expects.

    On a fault the kernel asks the policy for a preferred color, asks the
    pool for a frame of that color (the pool falls back under pressure),
    installs the mapping, and charges the configured fault cost.  This is
    the entire OS surface the paper's technique needs — the hint table
    simply changes the answer the policy gives (§5.3). *)

(** Raised when the frame pool is exhausted and no reclaimer could free
    a frame.  Carries the faulting CPU and virtual page so the failure
    is attributable (which job, which address) instead of a bare
    [Out_of_memory]. *)
exception Out_of_frames of { cpu : int; vpage : int }

type t = {
  cfg : Pcolor_memsim.Config.t;
  pool : Frame_pool.t;
  table : Page_table.t;
  policy : Policy.t;
  mutable faults : int;
  mutable color_granted : int array; (* per color: frames handed out *)
  mutable honored : int; (* this kernel's allocations that got their color *)
  mutable hint_fallbacks : int; (* ... and those that did not *)
  mutable reclaim : (cpu:int -> int) option;
      (* called on pool exhaustion; returns frames freed (multiprogramming
         second-chance reclaim lives in lib/sched, not here) *)
}

(** [create ~cfg ~policy ?mem_frames ?pool ?classify ()] builds a kernel
    managing [mem_frames] physical frames (default: 4× the aggregate L2
    capacity, a machine with comfortable memory).  Use a small
    [mem_frames] to create memory pressure and exercise hint fallback.
    Pass [pool] to share one frame pool between several kernels — the
    multiprogramming setup where concurrent address spaces compete for
    colors.  [classify] (ignored when [pool] is given) builds a hashed
    frame pool whose bins follow the given frame → bin map instead of
    [frame mod n_colors] (hash-aware coloring, DESIGN §16). *)
let create ~cfg ~policy ?mem_frames ?pool ?classify () =
  let n_colors = Pcolor_memsim.Config.n_colors cfg in
  let default_frames =
    (* Ample memory: enough for any SPEC95fp data set (>= 256 MB) and
       never less than 4x the aggregate external-cache capacity. *)
    let l2_frames = cfg.Pcolor_memsim.Config.l2.size / cfg.page_size in
    max (4 * l2_frames * cfg.n_cpus) (256 * 1024 * 1024 / cfg.page_size)
  in
  let pool =
    match pool with
    | Some p ->
      if Frame_pool.n_colors p <> n_colors then
        invalid_arg "Kernel.create: shared pool color count mismatch";
      p
    | None ->
      let frames = Option.value mem_frames ~default:default_frames in
      (match classify with
      | None -> Frame_pool.create ~frames ~n_colors
      | Some classify -> Frame_pool.create_classified ~classify ~frames ~n_colors)
  in
  {
    cfg;
    pool;
    table = Page_table.create ();
    policy;
    faults = 0;
    color_granted = Array.make n_colors 0;
    honored = 0;
    hint_fallbacks = 0;
    reclaim = None;
  }

(** [set_reclaim t f] installs the out-of-memory recovery path: when
    the pool is exhausted, [translate] calls [f ~cpu] and retries while
    it reports progress (frames freed > 0) before giving up. *)
let set_reclaim t f = t.reclaim <- Some f

(** [translate t ~cpu ~vpage] is the {!Pcolor_memsim.Machine.access}
    callback: returns [(frame, kernel_cycles)], where [kernel_cycles] is
    zero for an already-mapped page and the configured page-fault cost
    when this call had to allocate.  On pool exhaustion the installed
    reclaimer (if any) is invoked and the allocation retried while it
    makes progress; raises {!Out_of_frames} once nothing can be freed. *)
let translate t ~cpu ~vpage =
  let frame = Page_table.frame_of t.table vpage in
  if frame >= 0 then (frame, 0)
  else begin
    t.faults <- t.faults + 1;
    let preferred = Policy.preferred_color t.policy ~vpage in
    let fallbacks_before = Frame_pool.fallbacks t.pool in
    let rec alloc_with_reclaim () =
      match Frame_pool.alloc t.pool ~preferred with
      | Some f -> f
      | None -> (
        match t.reclaim with
        | Some f when f ~cpu > 0 -> alloc_with_reclaim ()
        | _ -> raise (Out_of_frames { cpu; vpage }))
    in
    let frame = alloc_with_reclaim () in
    let granted = Frame_pool.color_of t.pool frame in
    if Frame_pool.fallbacks t.pool > fallbacks_before then begin
      t.hint_fallbacks <- t.hint_fallbacks + 1;
      Logs.debug ~src:Pcolor_obs.Log.src (fun m ->
          m "fault cpu%d vpage %d: preferred color %d exhausted, fell back to %d" cpu vpage
            (((preferred mod Frame_pool.n_colors t.pool) + Frame_pool.n_colors t.pool)
            mod Frame_pool.n_colors t.pool)
            granted)
    end
    else t.honored <- t.honored + 1;
    t.color_granted.(granted) <- t.color_granted.(granted) + 1;
    Page_table.map t.table ~vpage ~frame;
    (frame, t.cfg.page_fault_cycles)
  end

(** [recolor t ~vpage ~preferred] remaps a page onto a frame of a
    different color — the §2.1 dynamic policies' repair action.  The
    new frame is allocated at [preferred] (with the usual fallback),
    the old frame is released, and the mapping is replaced.  Returns
    [(old_frame, new_frame)], or [None] when the page is unmapped, the
    pool is exhausted, or the "new" frame would have the same color
    (recoloring to the same color is useless).  The caller is
    responsible for charging copy/TLB-shootdown costs and invalidating
    stale cache lines. *)
let recolor t ~vpage ~preferred =
  match Page_table.frame_of t.table vpage with
  | -1 -> None
  | old_frame -> (
    let fallbacks_before = Frame_pool.fallbacks t.pool in
    let honored_before = Frame_pool.honored t.pool in
    match Frame_pool.alloc t.pool ~preferred with
    | None -> None
    | Some new_frame ->
      if Frame_pool.color_of t.pool new_frame = Frame_pool.color_of t.pool old_frame then begin
        Frame_pool.release t.pool new_frame;
        (* The pool already booked this alloc; mirror it so per-kernel
           counters keep summing to the shared pool's. *)
        if Frame_pool.fallbacks t.pool > fallbacks_before then
          t.hint_fallbacks <- t.hint_fallbacks + 1
        else if Frame_pool.honored t.pool > honored_before then t.honored <- t.honored + 1;
        None
      end
      else begin
        ignore (Page_table.unmap t.table vpage);
        Page_table.map t.table ~vpage ~frame:new_frame;
        Frame_pool.release t.pool old_frame;
        if Frame_pool.fallbacks t.pool > fallbacks_before then
          t.hint_fallbacks <- t.hint_fallbacks + 1
        else if Frame_pool.honored t.pool > honored_before then t.honored <- t.honored + 1;
        let c = Frame_pool.color_of t.pool new_frame in
        t.color_granted.(c) <- t.color_granted.(c) + 1;
        Some (old_frame, new_frame)
      end)

(** [evict t ~vpage] tears down a mapping and returns the freed frame —
    the reclaim path's half of a second-chance eviction.  The caller
    (lib/sched's reclaimer) must first invalidate TLB entries and cached
    lines for the frame on every CPU. *)
let evict t ~vpage =
  match Page_table.unmap t.table vpage with
  | None -> None
  | Some frame ->
    Frame_pool.release t.pool frame;
    Some frame

(** [policy t] / [pool t] / [page_table t] expose kernel internals for
    inspection and tests. *)
let policy t = t.policy

let pool t = t.pool

let page_table t = t.table

(** [faults t] counts page faults taken so far. *)
let faults t = t.faults

(** [honored t] / [hint_fallbacks t] count this kernel's allocations
    that did / did not receive the preferred color.  Equal to the pool's
    own counters when the kernel owns its pool; with a shared pool they
    partition the pool totals per address space. *)
let honored t = t.honored

let hint_fallbacks t = t.hint_fallbacks

(** [color_histogram t] is how many frames of each color have been
    granted — the measurable footprint of the mapping policy. *)
let color_histogram t = Array.copy t.color_granted

(** [publish_metrics ?pool_stats t reg] registers and sets VM-side
    counters and the per-color free-list depth distribution in [reg] —
    called once after a run (the fault path itself carries no metric
    updates).  When several kernels share one pool, pass
    [~pool_stats:false] for all but one so the pool's gauge and depth
    histogram are published exactly once. *)
let publish_metrics ?(pool_stats = true) t reg =
  let module Mx = Pcolor_obs.Metrics in
  Mx.add (Mx.counter reg "vm.page_faults") t.faults;
  (* Per-kernel honor counters, not the pool's: identical for a kernel
     that owns its pool, and additive when several kernels publish into
     one registry while sharing a pool (pcolor mix). *)
  Mx.add (Mx.counter reg "vm.hints.honored") t.honored;
  Mx.add (Mx.counter reg "vm.hints.fallback") t.hint_fallbacks;
  Mx.add (Mx.counter reg "vm.frames.granted") (Array.fold_left ( + ) 0 t.color_granted);
  if pool_stats then begin
    Mx.set (Mx.gauge reg "vm.frames.free") (Frame_pool.free_frames t.pool);
    let depth =
      Mx.histogram reg "vm.free_list.depth" ~bounds:[| 0; 1; 4; 16; 64; 256; 1024; 4096 |]
    in
    for color = 0 to Frame_pool.n_colors t.pool - 1 do
      Mx.observe depth (Frame_pool.free_of_color t.pool color)
    done
  end

(** [color_of_vpage t vpage] is the cache color the page landed on, if
    mapped: the ground truth CDPC tries to control. *)
let color_of_vpage t vpage =
  match Page_table.frame_of t.table vpage with
  | -1 -> None
  | frame -> Some (Frame_pool.color_of t.pool frame)
