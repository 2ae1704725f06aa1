(* Bechamel micro-benchmarks: the per-operation costs of the core
   machinery, one group per paper table/figure whose reproduction leans
   on it.  These complement the experiment harness in {!Figures}: the
   harness regenerates the paper's numbers, the micro-benchmarks show
   what the library itself costs. *)

open Bechamel
open Toolkit
module Config = Pcolor.Memsim.Config
module Cache = Pcolor.Memsim.Cache
module Shadow = Pcolor.Memsim.Shadow

let cfg_small = Config.scale (Config.sgi_base ~n_cpus:8 ()) 16

(* figure2/figure6 substrate: raw cache and shadow access throughput *)
let test_cache_access =
  let c = Cache.create cfg_small.l2 in
  let i = ref 0 in
  Test.make ~name:"figure2: L2 access (hit path)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Cache.access c ~addr:(!i land 0xFFF) ~write:false)))

(* a stream over 4x the shadow's capacity, drawn from frames of one
   page color, so every access misses, evicts the LRU line and unlinks
   it from its bucket chain *)
let test_shadow_access =
  let s = Shadow.create cfg_small.l2 in
  let lines_per_page = cfg_small.page_size / cfg_small.l2.line in
  let n_colors = Config.n_colors cfg_small in
  let pages = 4 * Shadow.capacity s / lines_per_page in
  let i = ref 0 in
  Test.make ~name:"figure2: FA shadow probe (4x capacity, one color)"
    (Staged.stage (fun () ->
         incr i;
         let frame = (!i / lines_per_page) mod pages * n_colors in
         ignore (Shadow.access s ((frame * lines_per_page) + (!i mod lines_per_page)))))

(* hot-path table substrate: the open-addressing int table that backs
   the prefetch and conflict maps, against the stdlib
   Hashtbl it replaced.  Same pre-populated key set, same probe
   sequence: the delta is the data structure, not the workload. *)
let itab_keys = Array.init 4096 (fun i -> i * 7919)

let test_itab_probe =
  let t = Pcolor.Util.Itab.create ~capacity:8192 () in
  Array.iter (fun k -> Pcolor.Util.Itab.set t k k) itab_keys;
  let i = ref 0 in
  Test.make ~name:"hot path: Itab find (hit)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Pcolor.Util.Itab.find t itab_keys.(!i land 0xFFF) ~default:(-1))))

let test_hashtbl_probe =
  let h = Hashtbl.create 8192 in
  Array.iter (fun k -> Hashtbl.replace h k k) itab_keys;
  let i = ref 0 in
  Test.make ~name:"hot path: Hashtbl find_opt (hit)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Hashtbl.find_opt h itab_keys.(!i land 0xFFF))))

let test_itab_upsert =
  let t = Pcolor.Util.Itab.create ~capacity:8192 () in
  let i = ref 0 in
  Test.make ~name:"hot path: Itab add (upsert)"
    (Staged.stage (fun () ->
         incr i;
         Pcolor.Util.Itab.add t (itab_keys.(!i land 0xFFF)) 1))

let test_hashtbl_upsert =
  let h = Hashtbl.create 8192 in
  let i = ref 0 in
  Test.make ~name:"hot path: Hashtbl find_opt+replace (upsert)"
    (Staged.stage (fun () ->
         incr i;
         let k = itab_keys.(!i land 0xFFF) in
         Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k))))

(* table1: workload construction *)
let test_program_build =
  Test.make ~name:"table1: build tomcatv (scale 16)"
    (Staged.stage (fun () -> ignore (Pcolor.Workloads.Tomcatv.program ~scale:16 ())))

(* figure6: the CDPC pipeline — summary extraction and hint generation *)
let test_summary_extract =
  let p = Pcolor.Workloads.Tomcatv.program ~scale:16 () in
  Test.make ~name:"figure6: summary extraction (tomcatv)"
    (Staged.stage (fun () -> ignore (Pcolor.Comp.Summary.extract ~page_size:4096 p)))

let test_hint_generation =
  let p = Pcolor.Workloads.Tomcatv.program ~scale:16 () in
  let summary = Pcolor.Comp.Summary.extract ~page_size:cfg_small.page_size p in
  ignore
    (Pcolor.Cdpc.Align.layout ~cfg:cfg_small ~mode:Pcolor.Cdpc.Align.Aligned
       ~groups:summary.groups p.arrays);
  Test.make ~name:"figure6: CDPC hint generation (tomcatv, 8 cpus)"
    (Staged.stage (fun () ->
         ignore (Pcolor.Cdpc.Colorer.generate ~cfg:cfg_small ~summary ~program:p ~n_cpus:8)))

(* figure9: fault-path cost — policy decision + frame allocation *)
let test_fault_path =
  let policy =
    Pcolor.Vm.Policy.create ~n_colors:(Config.n_colors cfg_small) ~seed:7
      (Pcolor.Vm.Policy.Base Bin_hopping)
  in
  let kernel = Pcolor.Vm.Kernel.create ~cfg:cfg_small ~policy () in
  let v = ref 0 in
  Test.make ~name:"figure9: page-fault service (bin hopping)"
    (Staged.stage (fun () ->
         incr v;
         ignore (Pcolor.Vm.Kernel.translate kernel ~cpu:0 ~vpage:!v)))

(* the per-experiment setup cost of the simulated machine *)
let test_machine_create =
  Test.make ~name:"Machine.create (8 CPUs, scale 16)"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Pcolor.Memsim.Machine.create cfg_small))))

(* figure8: prefetch issue path *)
let test_machine_access =
  let m = Pcolor.Memsim.Machine.create cfg_small in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let i = ref 0 in
  Test.make ~name:"figure8: full machine access (1 CPU, streaming)"
    (Staged.stage (fun () ->
         i := !i + 8;
         Pcolor.Memsim.Machine.access m ~cpu:0 ~vaddr:(!i land 0xFFFFF) ~write:false ~translate))

(* layer costs of the hashed LLC (DESIGN §16), on the 4-slice
   sandybridge machine the perfbench mix workload runs: the slice hash
   alone, the memoized route the machine calls per external-cache event,
   an L1 miss served by a slice, and the page teardown every reclaim
   eviction performs *)
let cfg_sliced =
  Config.validate { cfg_small with l2_slices = 4; l2_hash = Pcolor.Memsim.Ahash.Sandybridge }

let test_slice_hash =
  let h = Config.resolved_hash cfg_sliced in
  let i = ref 0 in
  Test.make ~name:"hashed LLC: Ahash.slice_of (sandybridge, 4 slices)"
    (Staged.stage (fun () ->
         i := !i + 0x9E37;
         ignore (Sys.opaque_identity (Pcolor.Memsim.Ahash.slice_of h (!i land 0xFFFFF)))))

(* 64 pages: every frame keeps its own memo slot, so each route is a hit *)
let test_slice_route =
  let s =
    Pcolor.Memsim.Slice.create cfg_sliced.l2 ~n_slices:4 ~hash:(Config.resolved_hash cfg_sliced)
      ~page_bits:(Pcolor.Util.Bits.log2 cfg_sliced.page_size)
  in
  let i = ref 0 in
  Test.make ~name:"hashed LLC: Slice.route (memo hit, 4 slices)"
    (Staged.stage (fun () ->
         i := !i + 0x9E37;
         ignore (Sys.opaque_identity (Pcolor.Memsim.Slice.route s (!i land 0x3FFFF)))))

(* one L1 line per access over two pages: 4× the L1, resident in the
   slices (consecutive frames fill different bins) and in the TLB *)
let test_l1_miss_l2_hit =
  let m = Pcolor.Memsim.Machine.create cfg_sliced in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let i = ref 0 in
  Test.make ~name:"L1 miss -> L2 hit (4-slice sandybridge)"
    (Staged.stage (fun () ->
         i := (!i + cfg_sliced.l1.line) land ((2 * cfg_sliced.page_size) - 1);
         Pcolor.Memsim.Machine.access m ~cpu:0 ~vaddr:!i ~write:false ~translate))

let test_invalidate_frame =
  let m = Pcolor.Memsim.Machine.create cfg_sliced in
  let i = ref 0 in
  Test.make ~name:"reclaim: invalidate_frame_everywhere (8 CPUs, 4 slices)"
    (Staged.stage (fun () ->
         incr i;
         Pcolor.Memsim.Machine.invalidate_frame_everywhere m ~frame:(!i land 0xFFF)))

(* translation and coherence layer costs (the sweep workload's miss
   path): a refill into a full 64-entry TLB, each op a new page, so
   every insert evicts the LRU entry; and the directory's classification
   probe plus read record over a dense range of physical lines *)
let test_tlb_refill =
  let t = Pcolor.Memsim.Tlb.create ~entries:64 in
  let v = ref 0 in
  for _ = 1 to 64 do
    incr v;
    ignore (Pcolor.Memsim.Tlb.insert t ~vpage:!v ~frame:!v)
  done;
  Test.make ~name:"translation: TLB refill (64 entries, full)"
    (Staged.stage (fun () ->
         incr v;
         ignore (Pcolor.Memsim.Tlb.insert t ~vpage:!v ~frame:!v)))

(* the two translation layers above the refill, through the machine's
   [touch_page]: one warm page, so every touch is a translation-memo
   hit; and two pages 64 apart, which share a memo slot but both stay
   in the 64-entry TLB, so every touch misses the memo and hits the
   TLB *)
let test_touch ~name vpages =
  let m = Pcolor.Memsim.Machine.create cfg_small in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let vaddrs = Array.map (fun v -> v * cfg_small.page_size) vpages in
  Array.iter (fun vaddr -> Pcolor.Memsim.Machine.touch_page m ~cpu:0 ~vaddr ~translate) vaddrs;
  let i = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         incr i;
         Pcolor.Memsim.Machine.touch_page m ~cpu:0 ~vaddr:vaddrs.(!i land (Array.length vaddrs - 1))
           ~translate))

let test_memo_hit = test_touch ~name:"translation: memo hit" [| 0 |]

let test_tlb_hit_memo_miss = test_touch ~name:"translation: TLB hit, memo miss" [| 0; 64 |]

let test_directory =
  let d = Pcolor.Memsim.Directory.create ~n_cpus:8 ~line_size:cfg_small.l2.line () in
  let i = ref 0 in
  Test.make ~name:"coherence: Directory inspect + record_read"
    (Staged.stage (fun () ->
         i := !i + 1;
         let line = !i land 0xFFFF and cpu = !i land 7 in
         ignore
           (Sys.opaque_identity
              (Pcolor.Memsim.Directory.inspect d ~cpu ~line ~addr:(line * cfg_small.l2.line)));
         ignore (Pcolor.Memsim.Directory.record_read d ~cpu ~line)))

(* the layers the consume loop pays per reference or event, beside
   the miss path above: an L1 hit (four lines of one warm page, so the
   translation memo and the L1 both hit), one bus charge, and a timeline
   row commit (the clock advanced past the boundary each time; the store
   is reset every 4096 rows so it stays the same size) *)
let test_l1_hit =
  let m = Pcolor.Memsim.Machine.create cfg_small in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let line = cfg_small.l1.line in
  for k = 0 to 3 do
    Pcolor.Memsim.Machine.access m ~cpu:0 ~vaddr:(k * line) ~write:false ~translate
  done;
  let i = ref 0 in
  Test.make ~name:"L1 hit (4 lines of one page)"
    (Staged.stage (fun () ->
         incr i;
         Pcolor.Memsim.Machine.access m ~cpu:0 ~vaddr:((!i land 3) * line) ~write:false ~translate))

let test_bus_charge =
  let b = Pcolor.Memsim.Bus.create () in
  Test.make ~name:"bus: data transfer charge"
    (Staged.stage (fun () -> Pcolor.Memsim.Bus.add_data b 16))

let test_sampler_commit =
  let sampler = Pcolor.Memsim.Machine.sampler_for ~epoch_cycles:1 cfg_small in
  let m =
    Pcolor.Memsim.Machine.create ~obs:(Pcolor.Obs.Ctx.create ~sampler ()) cfg_small
  in
  let i = ref 0 in
  Test.make ~name:"timeline: sampler row commit (8 CPUs)"
    (Staged.stage (fun () ->
         incr i;
         if !i land 4095 = 0 then Pcolor.Obs.Sampler.reset sampler;
         Pcolor.Memsim.Machine.tick m ~cpu:0 1;
         Pcolor.Memsim.Machine.sample_point m ~cpu:0))

(* the producer's layer: one batch at a time from the largest nest of
   tomcatv (scale 16), one CPU's share on 8 CPUs, recompiled when
   exhausted; reported per run record, so the layer model can cost the
   walker apart from consume *)
let walker_fill () =
  let module Walker = Pcolor.Comp.Walker in
  let p = Pcolor.Workloads.Tomcatv.program ~scale:16 () in
  let nest =
    List.fold_left
      (fun (best : Pcolor.Comp.Ir.nest) (n : Pcolor.Comp.Ir.nest) ->
        let size (n : Pcolor.Comp.Ir.nest) = Array.fold_left ( * ) (List.length n.refs) n.bounds in
        if size n > size best then n else best)
      (List.hd (List.hd p.phases).nests)
      (List.concat_map (fun (ph : Pcolor.Comp.Ir.phase) -> ph.nests) p.phases)
  in
  let plan = Pcolor.Comp.Prefetcher.find Pcolor.Comp.Prefetcher.none nest in
  let lo0, hi0 = Pcolor.Comp.Schedule.range nest ~n_cpus:8 ~cpu:0 in
  let l1_line_bits = Pcolor.Util.Bits.log2 cfg_small.l1.line
  and l2_line_bits = Pcolor.Util.Bits.log2 cfg_small.l2.line in
  let fresh () = Walker.create ~nest ~plan ~lo0 ~hi0 ~l1_line_bits ~l2_line_bits in
  let w = ref (fresh ()) in
  let b = Walker.create_batch () in
  (* the share's last batch is partial: count records per batch over
     one whole share *)
  let batches = ref 0 and records = ref 0 and fin = ref false in
  while not !fin do
    Walker.reset_batch b;
    fin := Walker.fill_runs !w b;
    incr batches;
    records := !records + (b.len / (1 + (2 * Walker.nrefs !w)))
  done;
  w := fresh ();
  ( Test.make ~name:"walker fill (tomcatv, one CPU's share)"
      (Staged.stage (fun () ->
           Walker.reset_batch b;
           if Walker.fill_runs !w b then w := fresh ())),
    !records / !batches )

(* table2: partition arithmetic *)
let test_partition =
  Test.make ~name:"table2: partition range (even)"
    (Staged.stage (fun () ->
         ignore (Pcolor.Comp.Partition.range Even Forward ~n_cpus:16 ~cpu:7 ~trip:513)))

(* btrace replay's decode layer alone: an in-memory tape streamed into
   a recorder that only counts the decoded head-group pairs, so the time
   is the codec's.  Reported per decoded reference pair; recording the
   tape happens once, outside the timed loop. *)
let btrace_decode () =
  let module Btrace = Pcolor.Runtime.Btrace in
  let module Run = Pcolor.Runtime.Run in
  let setup =
    Run.default_setup ~cfg:cfg_small
      ~make_program:(fun () -> Pcolor.Workloads.Tomcatv.program ~scale:16 ())
      ~policy:Run.Page_coloring
  in
  let path = Filename.temp_file "pcolor_micro" ".pcbt" in
  let tape =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        let w =
          Btrace.create_writer oc
            {
              Btrace.bench = "tomcatv";
              machine = "sgi";
              n_cpus = cfg_small.n_cpus;
              scale = 16;
              policy = Run.policy_name setup.policy;
              prefetch = false;
              seed = setup.seed;
              cap = setup.cap;
              provenance = "";
            }
        in
        ignore (Run.run ~recorder:(Btrace.recorder w) setup);
        Btrace.finish w;
        close_out oc;
        In_channel.with_open_bin path In_channel.input_all)
  in
  let pairs = ref 0 and nrefs = ref 0 in
  let counter : Pcolor.Runtime.Engine.recorder =
    {
      rec_run_section =
        (fun ~cpu:_ ~nrefs:n ~instr_per_iter:_ ~extra_onchip_stall:_ ~strides:_ -> nrefs := n);
      rec_runs = (fun b -> pairs := !pairs + (b.len / ((2 * !nrefs) + 1) * !nrefs));
      rec_tick = (fun ~cpu:_ _ -> ());
      rec_onchip = (fun ~cpu:_ _ -> ());
      rec_barrier = (fun _ -> ());
      rec_reset = (fun () -> ());
      rec_touch = (fun ~cpu:_ ~vpage:_ -> ());
      rec_phase_begin = (fun () -> ());
      rec_phase_end = (fun () -> ());
    }
  in
  Btrace.decode (Btrace.open_string tape) counter;
  let per_tape = !pairs in
  ( Test.make
      ~name:(Printf.sprintf "replay: btrace decode (%d KiB tape)" (String.length tape / 1024))
      (Staged.stage (fun () -> Btrace.decode (Btrace.open_string tape) counter)),
    per_tape )

let all_tests =
  [
    test_cache_access;
    test_shadow_access;
    test_itab_probe;
    test_hashtbl_probe;
    test_itab_upsert;
    test_hashtbl_upsert;
    test_program_build;
    test_summary_extract;
    test_hint_generation;
    test_fault_path;
    test_machine_create;
    test_machine_access;
    test_slice_hash;
    test_slice_route;
    test_l1_miss_l2_hit;
    test_invalidate_frame;
    test_memo_hit;
    test_tlb_hit_memo_miss;
    test_tlb_refill;
    test_directory;
    test_l1_hit;
    test_bus_charge;
    test_sampler_commit;
    test_partition;
  ]

(* One untimed warm-up pair: in a fresh process the first timed group
   would otherwise also measure binary page-in and major-heap growth
   (~40% on this workload). *)
let warm_up_pair () =
  List.iter
    (fun prefetch ->
      let d = Pcolor.Workloads.Spec.find "tomcatv" in
      let cfg = Harness.machine_cfg "sgi" ~n_cpus:4 in
      let setup =
        {
          (Harness.Run.default_setup ~cfg
             ~make_program:(fun () -> d.build ~scale:Harness.scale ())
             ~policy:Harness.Run.Page_coloring)
          with
          prefetch;
        }
      in
      ignore (Harness.Run.run setup))
    [ false; true ]

let run () =
  Harness.section "Micro-benchmarks (bechamel): per-operation costs of the core machinery";
  warm_up_pair ();
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  (* each test with the operations one run performs and their unit *)
  let decode, pairs = btrace_decode () in
  let fill, records = walker_fill () in
  List.iter
    (fun (test, per_run, unit) ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-56s %10.1f ns/%s\n" name (est /. float_of_int per_run) unit
          | _ -> Printf.printf "  %-56s (no estimate)\n" name)
        stats)
    (List.map (fun t -> (t, 1, "op")) all_tests
    @ [ (decode, pairs, "pair"); (fill, records, "record") ]);
  print_newline ()
