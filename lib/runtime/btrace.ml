(** Binary reference traces: record a batch-engine run as a stream of
    simulation events, replay it later without re-generating (or ever
    materializing) the reference stream.

    The format is a flat event tape mirroring exactly what the engine
    does: SECTION opens one CPU's share of a nest, BATCH carries the
    packed reference entries ({!Pcolor_comp.Walker} encoding) as
    zigzag-delta varints keyed per reference slot, RUN_SECTION /
    RUNS (format v2) carry the run-coalesced form — per-reference
    innermost strides in the section, then records of a repeat count
    plus one delta-encoded head group — TICK/ONCHIP carry aggregate
    cycle charges, BARRIER/PHASE_BEGIN/PHASE_END/RESET mark the
    synchronization structure, and TOUCH records the §5.3 page-touch
    order.  Batches are bounded (the engine's reusable batch), so both
    recording and replay stream in O(batch) memory — a scale-1024 trace
    never exists as a list.

    Version negotiation: the writer emits format v2; the reader accepts
    v1 and v2.  A v1 tape carries only per-reference batch records, so
    replaying one through today's runs-first engine transparently
    degrades to per-reference consumption ({!M.consume_batch}) — same
    counters, no error.  Run records inside a tape whose header says v1
    are rejected as {!Corrupt}.

    Replay rebuilds the kernel and machine from the embedded header via
    {!Run.prepare} (fault order is deterministic, so bin-hopping jitter,
    CDPC hints and frame placement reproduce), then consumes the tape
    through {!Pcolor_memsim.Machine.consume_batch} and the engine's own
    {!Engine.barrier_step} / {!Engine.contention_settle} arithmetic —
    counters come out byte-identical to the recorded run.  The
    observability context in the replay setup is honored in full:
    metrics, phase spans, attribution and the timeline all reproduce,
    so a taped run yields the same artifact sections as a live one.

    Both directions go through one chunk-buffered codec: the writer
    encodes into a 64 KiB window drained by one [output] per chunk, and
    the reader refills its window with one [input] per chunk, so no
    channel call (and no channel lock) is paid per tape byte.  The
    decoder ({!decode}) is the writer's exact inverse and drives any
    {!Engine.recorder}; replay is the recorder that feeds the machine.

    Malformed input raises the typed {!Error} exception (never a bare
    [Failure] and never silently-garbage counters). *)

module M = Pcolor_memsim.Machine
module Walker = Pcolor_comp.Walker
module Ir = Pcolor_comp.Ir

type header = {
  bench : string;
  machine : string;
  n_cpus : int;
  scale : int;
  policy : string;  (** {!Run.policy_name} label *)
  prefetch : bool;
  seed : int;
  cap : int;
  provenance : string;  (** free-form, e.g. [git describe] at record time *)
}

let magic = "PCBT"

(* Format v2 added the run-coalesced record pair (RUN_SECTION/RUNS).
   The writer always emits the current version; the reader accepts
   anything in [min_version, version]. *)
let version = 2

let min_version = 1

(* ------------------------------------------------------------------ *)
(* Typed errors *)

type corruption =
  | Bad_magic of string  (** the file doesn't start with "PCBT" *)
  | Bad_version of { found : int; expected : int }
  | Truncated of string  (** unexpected EOF; payload names the region *)
  | Corrupt of string  (** structurally invalid content *)

exception Error of corruption

let corruption_message = function
  | Bad_magic m -> Printf.sprintf "not a pcolor binary trace (magic %S)" m
  | Bad_version { found; expected } ->
    Printf.sprintf "trace format version %d, expected <= %d" found expected
  | Truncated region -> Printf.sprintf "truncated trace: %s" region
  | Corrupt what -> Printf.sprintf "corrupt trace: %s" what

let fail c = raise (Error c)

(* ------------------------------------------------------------------ *)
(* Chunk-buffered codec: LEB128 varints on OCaml's 63-bit ints, zigzag
   for signed, staged in [chunk_bytes] windows. *)

let chunk_bytes = 65536

let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* Encoding side: [obuf.[0, opos)] is pending output. *)
type sink = { oc : out_channel; obuf : Bytes.t; mutable opos : int }

let drain s =
  output s.oc s.obuf 0 s.opos;
  s.opos <- 0

let put_byte s b =
  if s.opos = chunk_bytes then drain s;
  Bytes.unsafe_set s.obuf s.opos (Char.unsafe_chr b);
  s.opos <- s.opos + 1

(* LEB128: seven bits per byte, low group first, high bit = more *)
let rec put_varint s n =
  if n < 0 then invalid_arg "Btrace.put_varint: negative"
  else if n < 0x80 then put_byte s n
  else begin
    put_byte s (0x80 lor (n land 0x7f));
    put_varint s (n lsr 7)
  end

let put_chars s str = String.iter (fun c -> put_byte s (Char.code c)) str

let put_string s str =
  put_varint s (String.length str);
  put_chars s str

(* Decoding side: [ibuf.[ipos, ilim)] is unread input; [fill] refills
   the window and returns 0 at end of input, which surfaces as
   [End_of_file] (as from the channel primitives) so each caller names
   the truncated region. *)
type source = {
  fill : Bytes.t -> int -> int -> int;
  ibuf : Bytes.t;
  mutable ipos : int;
  mutable ilim : int;
}

let get_byte s =
  if s.ipos = s.ilim then begin
    let n = s.fill s.ibuf 0 (Bytes.length s.ibuf) in
    if n = 0 then raise End_of_file;
    s.ipos <- 0;
    s.ilim <- n
  end;
  let b = Bytes.unsafe_get s.ibuf s.ipos in
  s.ipos <- s.ipos + 1;
  Char.code b

let rec varint_tail s n shift =
  if shift > 62 then fail (Corrupt "varint wider than 63 bits");
  let b = get_byte s in
  let n = n lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then n else varint_tail s n (shift + 7)

(* One-byte fast path: tags, CPU numbers and most deltas fit. *)
let[@inline] get_varint s =
  let p = s.ipos in
  if p < s.ilim then begin
    let b = Char.code (Bytes.unsafe_get s.ibuf p) in
    s.ipos <- p + 1;
    if b < 0x80 then b else varint_tail s (b land 0x7f) 7
  end
  else varint_tail s 0 0

let get_chars s len = String.init len (fun _ -> Char.unsafe_chr (get_byte s))

let get_string s =
  let len = get_varint s in
  if len < 0 || len > 1 lsl 20 then fail (Corrupt "unreasonable string length");
  get_chars s len

(* Event tags. *)
let tag_end = 0

let tag_tick = 1

let tag_onchip = 2

let tag_barrier = 3

let tag_touch = 4

let tag_phase_begin = 5

let tag_phase_end = 6

let tag_reset = 7

let tag_section = 8

let tag_batch = 9

(* v2 tags: run-coalesced sections. *)
let tag_run_section = 10

let tag_runs = 11

let kind_code = function Ir.Parallel _ -> 0 | Ir.Sequential -> 1 | Ir.Suppressed -> 2

(* Only the constructor class matters to barrier accounting; the
   partition payload never reaches the replayer's arithmetic. *)
let kind_of_code = function
  | 0 -> Ir.Parallel { policy = Pcolor_comp.Partition.Even; direction = Pcolor_comp.Partition.Forward }
  | 1 -> Ir.Sequential
  | 2 -> Ir.Suppressed
  | c -> fail (Corrupt (Printf.sprintf "bad barrier kind code %d" c))

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer = {
  sink : sink;
  mutable nrefs : int; (* current SECTION's reference count *)
  mutable prev : int array; (* per-slot previous packed entry (delta base) *)
  mutable finished : bool;
}

let create_writer oc (h : header) =
  let s = { oc; obuf = Bytes.create chunk_bytes; opos = 0 } in
  put_chars s magic;
  put_byte s version;
  put_string s h.bench;
  put_string s h.machine;
  put_varint s h.n_cpus;
  put_varint s h.scale;
  put_string s h.policy;
  put_byte s (if h.prefetch then 1 else 0);
  put_varint s h.seed;
  put_varint s h.cap;
  put_string s h.provenance;
  { sink = s; nrefs = 0; prev = [||]; finished = false }

let recorder w : Engine.recorder =
  let s = w.sink in
  let section tag ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall =
    put_byte s tag;
    put_varint s cpu;
    put_varint s nrefs;
    put_varint s instr_per_iter;
    put_varint s extra_onchip_stall;
    w.nrefs <- nrefs;
    if Array.length w.prev < nrefs then w.prev <- Array.make nrefs 0
    else Array.fill w.prev 0 nrefs 0
  in
  (* one packed entry: the address word as a zigzag delta against the
     slot's previous one, then the prefetch word *)
  let entry slot data i =
    let w0 = Array.unsafe_get data i in
    put_varint s (zigzag (w0 - Array.unsafe_get w.prev slot));
    Array.unsafe_set w.prev slot w0;
    put_varint s (Array.unsafe_get data (i + 1))
  in
  let cpu_value tag ~cpu n =
    put_byte s tag;
    put_varint s cpu;
    put_varint s n
  in
  {
    rec_section = section tag_section;
    rec_batch =
      (fun (b : Walker.batch) ->
        let npairs = b.len / 2 in
        put_byte s tag_batch;
        put_varint s npairs;
        let slot = ref 0 in
        for k = 0 to npairs - 1 do
          entry !slot b.data (2 * k);
          incr slot;
          if !slot = w.nrefs then slot := 0
        done);
    rec_run_section =
      (fun ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ~strides ->
        section tag_run_section ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall;
        for r = 0 to nrefs - 1 do
          put_varint s (zigzag strides.(r))
        done);
    rec_runs =
      (fun (b : Walker.batch) ->
        let nrefs = w.nrefs in
        let stride = 1 + (2 * nrefs) in
        let m = b.len / stride in
        put_byte s tag_runs;
        put_varint s m;
        for rec_ = 0 to m - 1 do
          let base = rec_ * stride in
          put_varint s (Array.unsafe_get b.data base);
          for r = 0 to nrefs - 1 do
            entry r b.data (base + 1 + (2 * r))
          done
        done);
    rec_tick = cpu_value tag_tick;
    rec_onchip = cpu_value tag_onchip;
    rec_barrier =
      (fun kind ->
        put_byte s tag_barrier;
        put_byte s (kind_code kind));
    rec_reset = (fun () -> put_byte s tag_reset);
    rec_touch = (fun ~cpu ~vpage -> cpu_value tag_touch ~cpu vpage);
    rec_phase_begin = (fun () -> put_byte s tag_phase_begin);
    rec_phase_end = (fun () -> put_byte s tag_phase_end);
  }

let finish w =
  if not w.finished then begin
    w.finished <- true;
    put_byte w.sink tag_end;
    drain w.sink;
    flush w.sink.oc
  end

(* ------------------------------------------------------------------ *)
(* Reader *)

type reader = { src : source; hdr : header; format_version : int }

(* Bounds on decoded structure fields, far above anything a real tape
   contains: a fuzzed varint must not turn into a giant allocation. *)
let max_cpus = 1 lsl 10

let max_nrefs = 1 lsl 16

let max_batch_pairs = 1 lsl 22

let max_run_records = 1 lsl 20

let of_source src =
  try
    let m = get_chars src (String.length magic) in
    if m <> magic then fail (Bad_magic m);
    let v = get_byte src in
    if v < min_version || v > version then fail (Bad_version { found = v; expected = version });
    let bench = get_string src in
    let machine = get_string src in
    let n_cpus = get_varint src in
    if n_cpus < 1 || n_cpus > max_cpus then
      fail (Corrupt (Printf.sprintf "header names %d CPUs" n_cpus));
    let scale = get_varint src in
    if not (Pcolor_util.Bits.is_pow2 scale) then
      fail (Corrupt (Printf.sprintf "header scale %d is not a positive power of two" scale));
    let policy = get_string src in
    let prefetch = get_byte src <> 0 in
    let seed = get_varint src in
    let cap = get_varint src in
    if cap < 1 then fail (Corrupt (Printf.sprintf "header window cap %d is not positive" cap));
    let provenance = get_string src in
    {
      src;
      hdr = { bench; machine; n_cpus; scale; policy; prefetch; seed; cap; provenance };
      format_version = v;
    }
  with End_of_file -> fail (Truncated "header")

let open_reader ic =
  of_source { fill = input ic; ibuf = Bytes.create chunk_bytes; ipos = 0; ilim = 0 }

let open_string tape =
  of_source
    { fill = (fun _ _ _ -> 0); ibuf = Bytes.of_string tape; ipos = 0; ilim = String.length tape }

let header r = r.hdr

let format_version r = r.format_version

(* ------------------------------------------------------------------ *)
(* Decoder: the writer's inverse, driving a recorder from the tape *)

let decode r (rc : Engine.recorder) =
  let s = r.src and n = r.hdr.n_cpus in
  let get_cpu () =
    let c = get_varint s in
    if c < 0 || c >= n then fail (Corrupt (Printf.sprintf "cpu %d out of range" c));
    c
  in
  (* current SECTION state; [strides] is non-empty only after a
     RUN_SECTION, so a RUNS record under a plain SECTION is caught *)
  let nrefs = ref 0 and prev = ref [||] and strides = ref [||] in
  let batch = ref (Walker.create_batch ()) in
  (* the batch with room for [len] ints, grown on demand *)
  let batch_of len =
    if len > Array.length !batch.data then batch := { Walker.data = Array.make len 0; len = 0 };
    !batch.len <- len;
    !batch
  in
  (* a section opener: cpu, reference count, per-iteration costs *)
  let section what k =
    let cpu = get_cpu () in
    let nr = get_varint s in
    if nr <= 0 || nr > max_nrefs then
      fail (Corrupt (Printf.sprintf "%s with %d references" what nr));
    let instr_per_iter = get_varint s in
    let extra_onchip_stall = get_varint s in
    nrefs := nr;
    if Array.length !prev < nr then prev := Array.make nr 0 else Array.fill !prev 0 nr 0;
    k ~cpu ~nrefs:nr ~instr_per_iter ~extra_onchip_stall
  in
  (* the inverse of the writer's [entry] *)
  let entry slot data i =
    let w0 = Array.unsafe_get !prev slot + unzigzag (get_varint s) in
    if w0 < 0 then fail (Corrupt "negative reference address");
    Array.unsafe_set !prev slot w0;
    Array.unsafe_set data i w0;
    Array.unsafe_set data (i + 1) (get_varint s)
  in
  let v1 = r.format_version < 2 in
  let running = ref true in
  try
    while !running do
      let tag = get_byte s in
      if tag = tag_batch then begin
        let npairs = get_varint s in
        let nr = !nrefs in
        if nr <= 0 then fail (Corrupt "BATCH before any SECTION");
        if npairs < 0 || npairs > max_batch_pairs then fail (Corrupt "oversized batch");
        if npairs mod nr <> 0 then fail (Corrupt "batch is not whole innermost iterations");
        let b = batch_of (2 * npairs) in
        let slot = ref 0 in
        for k = 0 to npairs - 1 do
          entry !slot b.data (2 * k);
          incr slot;
          if !slot = nr then slot := 0
        done;
        rc.rec_batch b
      end
      else if tag = tag_section then begin
        strides := [||];
        section "section" rc.rec_section
      end
      else if tag = tag_runs then begin
        if v1 then fail (Corrupt "run record in a v1 trace");
        let m = get_varint s in
        let nr = !nrefs in
        if Array.length !strides < nr then fail (Corrupt "RUNS before any RUN_SECTION");
        if m < 0 || m > max_run_records then fail (Corrupt "oversized run batch");
        let stride = 1 + (2 * nr) in
        let b = batch_of (m * stride) in
        for rec_ = 0 to m - 1 do
          let base = rec_ * stride in
          let count = get_varint s in
          if count < 1 || count > Walker.max_run_count then
            fail (Corrupt (Printf.sprintf "run count %d out of bounds" count));
          Array.unsafe_set b.data base count;
          for slot = 0 to nr - 1 do
            entry slot b.data (base + 1 + (2 * slot))
          done
        done;
        rc.rec_runs b
      end
      else if tag = tag_run_section then begin
        if v1 then fail (Corrupt "run section in a v1 trace");
        section "run section" (fun ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ->
            strides := Array.init nrefs (fun _ -> unzigzag (get_varint s));
            rc.rec_run_section ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ~strides:!strides)
      end
      else if tag = tag_tick then begin
        let cpu = get_cpu () in
        rc.rec_tick ~cpu (get_varint s)
      end
      else if tag = tag_onchip then begin
        let cpu = get_cpu () in
        rc.rec_onchip ~cpu (get_varint s)
      end
      else if tag = tag_barrier then rc.rec_barrier (kind_of_code (get_byte s))
      else if tag = tag_touch then begin
        let cpu = get_cpu () in
        rc.rec_touch ~cpu ~vpage:(get_varint s)
      end
      else if tag = tag_phase_begin then rc.rec_phase_begin ()
      else if tag = tag_phase_end then rc.rec_phase_end ()
      else if tag = tag_reset then rc.rec_reset ()
      else if tag = tag_end then running := false
      else fail (Corrupt (Printf.sprintf "bad event tag %d" tag))
    done
  with
  | End_of_file -> fail (Truncated "event stream (missing END marker)")
  | Invalid_argument m | Failure m -> fail (Corrupt m)
  | Division_by_zero -> fail (Corrupt "division by zero while decoding")

(* ------------------------------------------------------------------ *)
(* Replay *)

(** Replay drives the recorded tape against a fresh kernel/machine.  The
    measured window's occurrence weights are not on the tape: they are
    re-derived from the program ({!Window.plan}), exactly as the engine
    derived them, and consumed one per PHASE_BEGIN/PHASE_END pair after
    the RESET marker.  Phase names and span categories are likewise
    re-derived ({!Window.warmup_plan} order, then the measured plan), so
    an attached trace buffer receives the same span/instant stream the
    live run emitted. *)
let replay r ~(setup : Run.setup) =
  let cfg = setup.Run.cfg in
  (* the decoder bounds CPU numbers by the header; the machine must agree *)
  if cfg.n_cpus <> r.hdr.n_cpus then
    fail
      (Corrupt
         (Printf.sprintf "header names %d CPUs, the replay machine has %d" r.hdr.n_cpus
            cfg.n_cpus));
  let { Run.program; summary; hints_info; policy; layout_end = _ } = Run.prepare setup in
  let classify =
    (* mirror Run.run: a hash-aware replay must rebuild the same
       bin-classified pool or granted frames diverge from the tape *)
    match setup.Run.policy with
    | Run.Cdpc_hash _ -> Some (Pcolor_cdpc.Hcolorer.classify cfg)
    | _ -> None
  in
  let kernel =
    Pcolor_vm.Kernel.create ~cfg ~policy ?mem_frames:setup.Run.mem_frames ?classify ()
  in
  let obs = setup.Run.obs in
  let machine = M.create ~obs cfg in
  let translate ~cpu ~vpage = Pcolor_vm.Kernel.translate kernel ~cpu ~vpage in
  let n = cfg.n_cpus in
  let page_bits = Pcolor_util.Bits.log2 cfg.page_size in
  let ov = ref (Pcolor_stats.Overheads.create ~n_cpus:n) in
  let totals = Pcolor_stats.Totals.create ~n_cpus:n in
  (* --- observability replication (the live engine's Engine.create /
     run_phase_once / run_measured_occurrence instrumentation) --- *)
  let obs_trace = Pcolor_obs.Ctx.trace obs in
  (match obs_trace with
  | Some buf ->
    Pcolor_obs.Trace.process_name buf program.Ir.name;
    for cpu = 0 to n - 1 do
      Pcolor_obs.Trace.thread_name buf ~tid:cpu (Printf.sprintf "cpu%d" cpu)
    done
  | None -> ());
  let obs_handles =
    match Pcolor_obs.Ctx.metrics obs with
    | None -> None
    | Some reg ->
      let module Mx = Pcolor_obs.Metrics in
      Some
        ( Mx.histogram reg "runtime.phase_cycles"
            ~bounds:[| 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000 |],
          Mx.counter reg "runtime.phase_occurrences",
          Mx.counter reg "runtime.window_weight_ppm",
          Mx.counter reg "runtime.bus_knee_crossings" )
  in
  let phases = Array.of_list program.Ir.phases in
  (* phase occurrences in tape order: the warm-up pass, then the
     measured plan expanded per simulated occurrence *)
  let occs =
    ref
      (List.map
         (fun (s : Window.step) -> (phases.(s.phase_idx).Ir.pname, "warmup"))
         (Window.warmup_plan program)
      @ (Window.plan ~cap:setup.Run.cap program
        |> List.concat_map (fun (s : Window.step) ->
               List.init s.simulate (fun _ -> (phases.(s.phase_idx).Ir.pname, "measured")))))
  in
  let sum_pf_dropped () =
    let total = ref 0 in
    for cpu = 0 to n - 1 do
      total := !total + (M.stats machine ~cpu).M.pf_dropped_tlb
    done;
    !total
  in
  let tmax () =
    let m = ref 0 in
    for cpu = 0 to n - 1 do
      m := max !m (M.cpu_time machine ~cpu)
    done;
    !m
  in
  (* one weight per measured occurrence, in tape order *)
  let weights =
    ref
      (Window.plan ~cap:setup.Run.cap program
      |> List.concat_map (fun (s : Window.step) -> List.init s.simulate (fun _ -> s.weight)))
  in
  let measuring = ref false in
  (* snapshots live across PHASE_BEGIN → PHASE_END *)
  let t0 = Array.make n 0 and stall0 = Array.make n 0 in
  let busy0 = ref 0 in
  let dropped0 = ref 0 in
  let wall0 = ref 0 in
  let last_contention = ref 1.0 in
  let start = ref None in
  (* current section, as the decoder announces it *)
  let cpu = ref 0 and nrefs = ref 0 and ipi = ref 0 and extra = ref 0 and strides = ref [||] in
  let section ~cpu:c ~nrefs:nr ~instr_per_iter ~extra_onchip_stall =
    cpu := c;
    nrefs := nr;
    ipi := instr_per_iter;
    extra := extra_onchip_stall
  in
  let rc : Engine.recorder =
    {
      rec_section = section;
      rec_batch =
        (fun b ->
          M.consume_batch machine ~cpu:!cpu ~translate ~data:b.data ~len:b.len ~nrefs:!nrefs
            ~instr_per_iter:!ipi ~extra_onchip_stall:!extra);
      rec_run_section =
        (fun ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ~strides:st ->
          section ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall;
          strides := st);
      rec_runs =
        (fun b ->
          M.consume_runs machine ~cpu:!cpu ~translate ~data:b.data ~len:b.len ~nrefs:!nrefs
            ~strides:!strides ~instr_per_iter:!ipi ~extra_onchip_stall:!extra);
      rec_tick = (fun ~cpu n -> M.tick machine ~cpu n);
      rec_onchip = (fun ~cpu n -> M.add_onchip_stall machine ~cpu n);
      rec_barrier = (fun kind -> Engine.barrier_step machine !ov ~first_cpu:0 ~n kind);
      rec_reset =
        (fun () ->
          M.reset_stats machine;
          ov := Pcolor_stats.Overheads.create ~n_cpus:n;
          measuring := true);
      rec_touch =
        (fun ~cpu ~vpage -> M.touch_page machine ~cpu ~vaddr:(vpage lsl page_bits) ~translate);
      rec_phase_begin =
        (fun () ->
          for c = 0 to n - 1 do
            t0.(c) <- M.cpu_time machine ~cpu:c;
            stall0.(c) <- M.total_mem_stall (M.stats machine ~cpu:c)
          done;
          busy0 := Pcolor_memsim.Bus.busy_cycles (M.bus machine);
          dropped0 := (match obs_trace with Some _ -> sum_pf_dropped () | None -> 0);
          wall0 := (match obs_handles with Some _ -> tmax () | None -> 0);
          if !measuring then start := Some (Pcolor_stats.Totals.snapshot machine !ov));
      rec_phase_end =
        (fun () ->
          let pname, cat =
            match !occs with
            | o :: rest ->
              occs := rest;
              o
            | [] -> fail (Corrupt "more phase occurrences than the window plan")
          in
          (match obs_trace with
          | Some buf ->
            for c = 0 to n - 1 do
              Pcolor_obs.Trace.duration_begin buf ~ts:t0.(c) ~tid:c ~cat pname;
              Pcolor_obs.Trace.duration_end buf ~ts:(M.cpu_time machine ~cpu:c) ~tid:c ~cat pname
            done;
            let dropped = sum_pf_dropped () - !dropped0 in
            let master = Pcolor_comp.Schedule.master in
            if dropped > 0 then
              Pcolor_obs.Trace.instant buf
                ~ts:(M.cpu_time machine ~cpu:master)
                ~tid:master ~cat:"prefetch"
                ~args:[ ("count", Pcolor_obs.Json.Int dropped) ]
                "prefetch-drops"
          | None -> ());
          let f = Engine.contention_settle machine ~t0 ~stall0 ~busy0:!busy0 in
          if f > 1.0 && !last_contention <= 1.0 then begin
            (match obs_handles with
            | Some (_, _, _, knee) -> Pcolor_obs.Metrics.incr knee
            | None -> ());
            let master = Pcolor_comp.Schedule.master in
            (match obs_trace with
            | Some buf ->
              Pcolor_obs.Trace.instant buf
                ~ts:(M.cpu_time machine ~cpu:master)
                ~tid:master ~cat:"bus"
                ~args:[ ("stretch_factor", Pcolor_obs.Json.Float f) ]
                "bus-knee"
            | None -> ());
            Logs.debug ~src:Pcolor_obs.Log.src (fun m ->
                m "bus crossed the saturation knee: stretch factor %.3f" f)
          end;
          last_contention := f;
          match !start with
          | None -> ()
          | Some s ->
            let fin = Pcolor_stats.Totals.snapshot machine !ov in
            let weight =
              match !weights with
              | w :: rest ->
                weights := rest;
                w
              | [] -> fail (Corrupt "more measured occurrences than the window plan")
            in
            (match obs_handles with
            | Some (phase_cycles, occurrences, weight_ppm, _) ->
              let module Mx = Pcolor_obs.Metrics in
              Mx.observe phase_cycles (tmax () - !wall0);
              Mx.incr occurrences;
              Mx.add weight_ppm (int_of_float (weight *. 1e6))
            | None -> ());
            Pcolor_stats.Totals.accumulate ~into:totals ~start:s ~fin ~f ~weight;
            start := None);
    }
  in
  (try decode r rc
   with Pcolor_vm.Kernel.Out_of_frames _ ->
     fail (Corrupt "reference stream exhausted physical memory"));
  if !weights <> [] then fail (Truncated "measured window incomplete (missing END marker)");
  M.sample_flush machine;
  (match obs_trace with Some buf -> M.emit_timeline_counters machine buf | None -> ());
  let pool = Pcolor_vm.Kernel.pool kernel in
  let metrics_snapshot =
    match Pcolor_obs.Ctx.metrics obs with
    | None -> None
    | Some reg ->
      M.publish_metrics machine reg;
      Pcolor_vm.Kernel.publish_metrics kernel reg;
      Some (Pcolor_obs.Metrics.snapshot reg)
  in
  Pcolor_obs.Ctx.flush obs;
  let report =
    Pcolor_stats.Report.of_totals ~benchmark:program.Ir.name ~machine:cfg.name ~n_cpus:cfg.n_cpus
      ~policy:(Run.policy_name setup.Run.policy) ~prefetch:setup.Run.prefetch
      ~page_faults:(Pcolor_vm.Kernel.faults kernel)
      ~hints_honored:(Pcolor_vm.Frame_pool.honored pool)
      ~hints_fallback:(Pcolor_vm.Frame_pool.fallbacks pool)
      totals
  in
  {
    Run.cfg;
    report;
    totals;
    program;
    summary;
    hints_info = Option.map snd hints_info;
    trace = [];
    kernel;
    machine;
    recolorings = 0;
    hash_inversion =
      (match setup.Run.policy with
      | Run.Cdpc_hash _ -> Some (Pcolor_cdpc.Hcolorer.inversion_name cfg)
      | _ -> None);
    metrics = metrics_snapshot;
    attrib = Pcolor_obs.Ctx.attrib obs;
  }
