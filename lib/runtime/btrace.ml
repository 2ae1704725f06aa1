(** Binary reference traces: record a runs-engine run as a stream of
    simulation events, replay it later without re-generating (or ever
    materializing) the reference stream.

    The format (v3) is a flat event tape mirroring exactly what the
    engine does: RUN_SECTION opens one CPU's share of a nest with its
    per-reference innermost strides, RUNS carries run records
    ({!Pcolor_comp.Walker.fill_runs} encoding: a repeat count plus one
    head group of packed (address word, prefetch word) entries),
    TICK/ONCHIP carry aggregate cycle charges,
    BARRIER/PHASE_BEGIN/PHASE_END/RESET mark the synchronization
    structure, and TOUCH records the §5.3 page-touch order.  Batches are
    bounded (the engine's reusable batch), so both recording and replay
    stream in O(batch) memory — a scale-1024 trace never exists as a
    list.

    A v3 run record is predicted: one varint
    [count lsl 2 lor explicit lsl 1 lor has_pf] heads it, and each
    slot's address word is taken to be the previous record's advanced
    by the walker's own step, [(stride × previous count) lsl 1] (the
    prediction restarts from zero at every RUN_SECTION).  Only an
    [explicit] record carries the zigzag residual of every slot against
    that prediction, and only a [has_pf] record carries its prefetch
    words (all zero otherwise).  Inside an innermost loop every record
    is predicted, so most records are the one varint.

    Formats v1 (per-reference SECTION/BATCH records, tags 8 and 9) and
    v2 (one zigzag delta and one prefetch varint per reference word) are
    no longer read: their headers are {!Bad_version}, and tags 8/9
    inside a v3 tape are {!Corrupt} like any unknown tag.

    Replay is a thin adapter onto the live run's own code.
    {!Run.build} rebuilds the kernel, machine and engine from the setup
    the header names (fault order is deterministic, so bin-hopping
    jitter, CDPC hints and frame placement reproduce).  RUNS batches go
    straight into {!Pcolor_memsim.Machine.consume_runs}, and the
    synchronization markers drive the engine's phase bracket
    ({!Engine.open_occurrence} / {!Engine.close_occurrence}),
    {!Engine.barrier} and {!Engine.begin_measured}.  {!Run.finish}
    closes the run.  Counters, metrics, phase spans, instants,
    attribution and the timeline therefore come from the same code as
    the recorded run's, so a taped run yields the same artifact and the
    same Chrome trace as a live one.

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

(* Format v2 added the run-coalesced record pair (RUN_SECTION/RUNS), v3
   predicted run records; v1 and v2 tapes are no longer read.  Writer
   and reader speak this version only. *)
let version = 3

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
    Printf.sprintf "trace format version %d, expected %d" found expected
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

(* 8 and 9 were v1's per-reference SECTION/BATCH pair. *)
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
(* Run-record prediction *)

(* The prediction, kept identically by writer and decoder:
   slot [r]'s next address word is [head.(r) + step.(r) × count], the
   previous record's head advanced by its repeat count. *)
type predictor = {
  mutable nrefs : int; (* current RUN_SECTION's reference count *)
  mutable step : int array; (* per-slot innermost stride, lsl 1 *)
  mutable head : int array; (* per-slot previous address word *)
  mutable count : int; (* previous record's repeat count *)
}

let predictor () = { nrefs = 0; step = [||]; head = [||]; count = 0 }

let[@inline] predicted p r = Array.unsafe_get p.head r + (Array.unsafe_get p.step r * p.count)

(* A RUN_SECTION restarts the prediction from zero. *)
let open_section p ~nrefs strides =
  p.nrefs <- nrefs;
  p.step <- Array.init nrefs (fun r -> strides.(r) lsl 1);
  if Array.length p.head < nrefs then p.head <- Array.make nrefs 0
  else Array.fill p.head 0 nrefs 0;
  p.count <- 0

(* ------------------------------------------------------------------ *)
(* Writer *)

type writer = { sink : sink; pred : predictor; mutable finished : bool }

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
  { sink = s; pred = predictor (); finished = false }

let recorder w : Engine.recorder =
  let s = w.sink and p = w.pred in
  let cpu_value tag ~cpu n =
    put_byte s tag;
    put_varint s cpu;
    put_varint s n
  in
  {
    rec_run_section =
      (fun ~cpu ~nrefs ~instr_per_iter ~extra_onchip_stall ~strides ->
        put_byte s tag_run_section;
        put_varint s cpu;
        put_varint s nrefs;
        put_varint s instr_per_iter;
        put_varint s extra_onchip_stall;
        open_section p ~nrefs strides;
        for r = 0 to nrefs - 1 do
          put_varint s (zigzag strides.(r))
        done);
    rec_runs =
      (fun (b : Walker.batch) ->
        let nrefs = p.nrefs and data = b.data in
        let stride = 1 + (2 * nrefs) in
        let m = b.len / stride in
        put_byte s tag_runs;
        put_varint s m;
        for rec_ = 0 to m - 1 do
          (* the record's first slot; its count sits just before *)
          let at = (rec_ * stride) + 1 in
          let explicit = ref 0 and has_pf = ref 0 in
          for r = 0 to nrefs - 1 do
            if Array.unsafe_get data (at + (2 * r)) <> predicted p r then explicit := 2;
            if Array.unsafe_get data (at + (2 * r) + 1) <> 0 then has_pf := 1
          done;
          let count = Array.unsafe_get data (at - 1) in
          put_varint s ((count lsl 2) lor !explicit lor !has_pf);
          if !explicit <> 0 then
            for r = 0 to nrefs - 1 do
              put_varint s (zigzag (Array.unsafe_get data (at + (2 * r)) - predicted p r))
            done;
          if !has_pf <> 0 then
            for r = 0 to nrefs - 1 do
              put_varint s (Array.unsafe_get data (at + (2 * r) + 1))
            done;
          for r = 0 to nrefs - 1 do
            Array.unsafe_set p.head r (Array.unsafe_get data (at + (2 * r)))
          done;
          p.count <- count
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

(* Decoding one run record's slots into [data.(at)], [data.(at + 1)],
   ...: [predict] writes the predicted address words with no prefetch,
   [correct] adds one residual to each predicted address word (an
   explicit record), [prefetch_words] sets the prefetch words.  [predict] makes
   no call, so its loop runs in registers.  [predict] and [correct]
   return the [lor] of the address words, negative iff one of them
   is. *)
let predict p data at =
  let neg = ref 0 in
  for r = 0 to p.nrefs - 1 do
    let w0 = predicted p r in
    neg := !neg lor w0;
    Array.unsafe_set p.head r w0;
    Array.unsafe_set data (at + (2 * r)) w0;
    Array.unsafe_set data (at + (2 * r) + 1) 0
  done;
  !neg

let correct s p data at =
  let head = p.head and neg = ref 0 in
  for r = 0 to p.nrefs - 1 do
    let w0 = Array.unsafe_get head r + unzigzag (get_varint s) in
    neg := !neg lor w0;
    Array.unsafe_set head r w0;
    Array.unsafe_set data (at + (2 * r)) w0
  done;
  !neg

let prefetch_words s p data at =
  for r = 0 to p.nrefs - 1 do
    Array.unsafe_set data (at + (2 * r) + 1) (get_varint s)
  done

(* [get_records s p data m] decodes a RUNS payload of [m] records into
   [data] in the {!Walker.fill_runs} layout, advancing the prediction.
   An explicit record is predicted first and then corrected: the
   residuals are against the prediction. *)
let get_records s p data m =
  let stride = 1 + (2 * p.nrefs) in
  for rec_ = 0 to m - 1 do
    let base = rec_ * stride in
    let v = get_varint s in
    let count = v lsr 2 in
    if count < 1 || count > Walker.max_run_count then
      fail (Corrupt (Printf.sprintf "run count %d out of bounds" count));
    Array.unsafe_set data base count;
    let neg = predict p data (base + 1) in
    let neg = if v land 2 <> 0 then correct s p data (base + 1) else neg in
    if neg < 0 then fail (Corrupt "negative reference address");
    if v land 1 <> 0 then prefetch_words s p data (base + 1);
    p.count <- count
  done

type reader = { src : source; hdr : header }

(* Bounds on decoded structure fields, far above anything a real tape
   contains: a fuzzed varint must not turn into a giant allocation.  A
   header's CPU count is bounded by the machine's own limit. *)
let max_nrefs = 1 lsl 16

let max_run_records = 1 lsl 20

let of_source src =
  try
    let m = get_chars src (String.length magic) in
    if m <> magic then fail (Bad_magic m);
    let v = get_byte src in
    if v <> version then fail (Bad_version { found = v; expected = version });
    let bench = get_string src in
    let machine = get_string src in
    let n_cpus = get_varint src in
    if n_cpus < 1 || n_cpus > Pcolor_memsim.Config.max_cpus then
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
    { src; hdr = { bench; machine; n_cpus; scale; policy; prefetch; seed; cap; provenance } }
  with End_of_file -> fail (Truncated "header")

let open_reader ic =
  of_source { fill = input ic; ibuf = Bytes.create chunk_bytes; ipos = 0; ilim = 0 }

let open_string tape =
  of_source
    { fill = (fun _ _ _ -> 0); ibuf = Bytes.of_string tape; ipos = 0; ilim = String.length tape }

let header r = r.hdr

(* ------------------------------------------------------------------ *)
(* Decoder: the writer's inverse, driving a recorder from the tape *)

let decode r (rc : Engine.recorder) =
  let s = r.src and n = r.hdr.n_cpus in
  let get_cpu () =
    let c = get_varint s in
    if c < 0 || c >= n then fail (Corrupt (Printf.sprintf "cpu %d out of range" c));
    c
  in
  let p = predictor () in
  let batch = ref (Walker.create_batch ()) in
  (* the batch with room for [len] ints, grown on demand *)
  let batch_of len =
    if len > Array.length !batch.data then batch := { Walker.data = Array.make len 0; len = 0 };
    !batch.len <- len;
    !batch
  in
  let running = ref true in
  try
    while !running do
      let tag = get_byte s in
      if tag = tag_runs then begin
        let m = get_varint s in
        let nr = p.nrefs in
        if nr <= 0 then fail (Corrupt "RUNS before any RUN_SECTION");
        if m < 0 || m > max_run_records then fail (Corrupt "oversized run batch");
        let b = batch_of (m * (1 + (2 * nr))) in
        get_records s p b.data m;
        rc.rec_runs b
      end
      else if tag = tag_run_section then begin
        let cpu = get_cpu () in
        let nr = get_varint s in
        if nr <= 0 || nr > max_nrefs then
          fail (Corrupt (Printf.sprintf "run section with %d references" nr));
        let instr_per_iter = get_varint s in
        let extra_onchip_stall = get_varint s in
        let strides = Array.init nr (fun _ -> unzigzag (get_varint s)) in
        open_section p ~nrefs:nr strides;
        rc.rec_run_section ~cpu ~nrefs:nr ~instr_per_iter ~extra_onchip_stall ~strides
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

(** Replay is an adapter from tape events onto the live run's own
    code: {!Run.build} wires the kernel, machine and engine (replay
    never asks the engine to walk a nest: the references, prefetches
    included, are on the tape), PHASE_BEGIN/PHASE_END open and close
    the engine's phase bracket,
    BARRIER and RESET are the engine's barrier and measured-pass reset,
    and {!Run.finish} closes the run.  The phase steps are not on the
    tape: the warm-up plan names the occurrences before RESET and the
    measured plan, one step per simulated occurrence, those after it,
    exactly as the live engine walked them. *)
let replay r ~(setup : Run.setup) =
  let cfg = setup.Run.cfg in
  (* the decoder bounds CPU numbers by the header; the machine must agree *)
  if cfg.n_cpus <> r.hdr.n_cpus then
    fail
      (Corrupt
         (Printf.sprintf "header names %d CPUs, the replay machine has %d" r.hdr.n_cpus
            cfg.n_cpus));
  (* a recoloring round moves pages between phases; the tape holds no
     record of it, so such a run cannot be reproduced from one *)
  (match setup.Run.policy with
  | Run.Dynamic_recoloring _ ->
    fail
      (Corrupt
         (Printf.sprintf "header policy %s recolors pages at run time and cannot be replayed"
            r.hdr.policy))
  | _ -> ());
  let b = Run.build setup in
  let machine = b.Run.machine and eng = b.Run.engine in
  let translate ~cpu ~vpage = Pcolor_vm.Kernel.translate b.Run.kernel ~cpu ~vpage in
  let page_bits = Pcolor_util.Bits.log2 cfg.page_size in
  let totals = Pcolor_stats.Totals.create ~n_cpus:cfg.n_cpus in
  let warmup = ref (Engine.warmup_plan eng) in
  let measured =
    ref
      (Engine.measured_plan eng ~cap:setup.Run.cap
      |> List.concat_map (fun (s : Window.step) -> List.init s.simulate (fun _ -> s)))
  in
  let measuring = ref false and open_phase = ref None in
  let next_step plan =
    match !plan with
    | s :: rest ->
      plan := rest;
      s
    | [] -> fail (Corrupt "more phase occurrences than the window plan")
  in
  (* current section, as the decoder announces it *)
  let cpu = ref 0 and nrefs = ref 0 and ipi = ref 0 and extra = ref 0 and strides = ref [||] in
  let rc : Engine.recorder =
    {
      rec_run_section =
        (fun ~cpu:c ~nrefs:nr ~instr_per_iter ~extra_onchip_stall ~strides:st ->
          cpu := c;
          nrefs := nr;
          ipi := instr_per_iter;
          extra := extra_onchip_stall;
          strides := st);
      rec_runs =
        (fun b ->
          M.consume_runs machine ~cpu:!cpu ~translate ~data:b.data ~len:b.len ~nrefs:!nrefs
            ~strides:!strides ~instr_per_iter:!ipi ~extra_onchip_stall:!extra);
      rec_tick = (fun ~cpu n -> M.tick machine ~cpu n);
      rec_onchip = (fun ~cpu n -> M.add_onchip_stall machine ~cpu n);
      rec_barrier = Engine.barrier eng;
      rec_reset =
        (fun () ->
          if !warmup <> [] then fail (Corrupt "RESET before the warm-up pass ended");
          M.reset_stats machine;
          Engine.begin_measured eng;
          measuring := true);
      rec_touch =
        (fun ~cpu ~vpage -> M.touch_page machine ~cpu ~vaddr:(vpage lsl page_bits) ~translate);
      rec_phase_begin =
        (fun () ->
          if !open_phase <> None then fail (Corrupt "PHASE_BEGIN inside an open phase");
          open_phase :=
            Some
              (if !measuring then Engine.open_occurrence eng ~into:totals (next_step measured)
               else Engine.open_occurrence eng (next_step warmup)));
      rec_phase_end =
        (fun () ->
          match !open_phase with
          | Some o ->
            open_phase := None;
            Engine.close_occurrence eng o
          | None -> fail (Corrupt "PHASE_END without PHASE_BEGIN"));
    }
  in
  (try decode r rc
   with Pcolor_vm.Kernel.Out_of_frames _ ->
     fail (Corrupt "reference stream exhausted physical memory"));
  if !measured <> [] || !open_phase <> None then
    fail (Truncated "measured window incomplete (missing END marker)");
  Run.finish b totals
