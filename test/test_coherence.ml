(* Tests for the coherence directory and the miss classification it
   drives inside the machine model. *)

module Dir = Pcolor.Memsim.Directory
module Mclass = Pcolor.Memsim.Mclass
module Machine = Pcolor.Memsim.Machine

let test_directory_fresh_line () =
  let d = Dir.create ~line_size:128 () in
  let v = Dir.inspect d ~cpu:0 ~line:5 ~addr:(5 * 128) in
  Alcotest.(check bool) "fresh incoherent" false (Dir.v_coherent v);
  Alcotest.(check bool) "no remote dirty" false (Dir.v_remote_dirty v)

let test_directory_read_then_write () =
  let d = Dir.create ~line_size:128 () in
  ignore (Dir.record_read d ~cpu:0 ~line:1);
  ignore (Dir.record_read d ~cpu:1 ~line:1);
  let mask = Dir.record_write d ~cpu:0 ~line:1 ~addr:128 in
  Alcotest.(check int) "cpu1 invalidated" 0b10 mask;
  let v0 = Dir.inspect d ~cpu:0 ~line:1 ~addr:128 in
  Alcotest.(check bool) "writer coherent" true (Dir.v_coherent v0);
  let v1 = Dir.inspect d ~cpu:1 ~line:1 ~addr:128 in
  Alcotest.(check bool) "reader invalidated" false (Dir.v_coherent v1);
  Alcotest.(check bool) "sees true sharing (same word)" true (Dir.v_sharing v1 = `True);
  let v1' = Dir.inspect d ~cpu:1 ~line:1 ~addr:(128 + 8) in
  Alcotest.(check bool) "different word: false sharing" true (Dir.v_sharing v1' = `False)

let test_directory_remote_dirty () =
  let d = Dir.create ~line_size:128 () in
  ignore (Dir.record_write d ~cpu:0 ~line:7 ~addr:(7 * 128));
  let v = Dir.inspect d ~cpu:1 ~line:7 ~addr:(7 * 128) in
  Alcotest.(check bool) "remote dirty" true (Dir.v_remote_dirty v);
  let forced = Dir.record_read d ~cpu:1 ~line:7 in
  Alcotest.(check bool) "read forces clean" true forced;
  let v' = Dir.inspect d ~cpu:1 ~line:7 ~addr:(7 * 128) in
  Alcotest.(check bool) "now coherent" true (Dir.v_coherent v')

let test_directory_writeback_evict () =
  let d = Dir.create ~line_size:128 () in
  ignore (Dir.record_write d ~cpu:0 ~line:3 ~addr:(3 * 128));
  Dir.writeback d ~cpu:0 ~line:3;
  let v = Dir.inspect d ~cpu:1 ~line:3 ~addr:(3 * 128) in
  Alcotest.(check bool) "clean after writeback" false (Dir.v_remote_dirty v);
  Dir.evict d ~cpu:0 ~line:3;
  let v0 = Dir.inspect d ~cpu:0 ~line:3 ~addr:(3 * 128) in
  Alcotest.(check bool) "evict clears validity" false (Dir.v_coherent v0)

let test_directory_word_mask_reset () =
  let d = Dir.create ~line_size:128 () in
  ignore (Dir.record_write d ~cpu:0 ~line:1 ~addr:0);
  (* ownership change resets the written-word mask *)
  ignore (Dir.record_write d ~cpu:1 ~line:1 ~addr:8);
  let v = Dir.inspect d ~cpu:0 ~line:1 ~addr:0 in
  Alcotest.(check bool) "word 0 not in cpu1's mask" true (Dir.v_sharing v = `False);
  let v' = Dir.inspect d ~cpu:0 ~line:1 ~addr:8 in
  Alcotest.(check bool) "word 1 in cpu1's mask" true (Dir.v_sharing v' = `True)

(* Differential test of the packed (direct-indexed) directory against a
   Hashtbl of per-line records written out from the protocol rules, on
   a machine of [Config.max_cpus] CPUs: ops drawn over every CPU id
   reach the top valid-mask bit and the widest writer field.  Lines
   come from both sides of the direct array's cap, so the dense path
   and the spill table are both driven.  Every return value and
   verdict must match, and so must [lines] — a writeback or evict to a
   never-entered line must not create it. *)
type model_line = { mutable valid : int; mutable writer : int; mutable dirty : bool; mutable wmask : int }

let prop_directory_matches_model =
  let cap = Pcolor.Util.Densemap.direct_limit in
  QCheck.Test.make ~name:"directory matches Hashtbl model across the spill cap" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 200)
        (quad (int_range 0 4)
           (int_range 0 (Pcolor.Memsim.Config.max_cpus - 1))
           (int_range 0 63) (int_range 0 15)))
    (fun ops ->
      let d = Dir.create ~n_cpus:Pcolor.Memsim.Config.max_cpus ~line_size:128 () in
      let model : (int, model_line) Hashtbl.t = Hashtbl.create 64 in
      let get line =
        match Hashtbl.find_opt model line with
        | Some s -> s
        | None ->
          let s = { valid = 0; writer = -1; dirty = false; wmask = 0 } in
          Hashtbl.add model line s;
          s
      in
      List.for_all
        (fun (op, cpu, l, word) ->
          let line = if l < 32 then l else cap + l - 32 in
          let addr = (line * 128) + (word * 8) and me = 1 lsl cpu and bit = 1 lsl word in
          let step_ok =
            match op with
            | 0 ->
              let s = get line in
              let forced = s.dirty && s.writer >= 0 && s.writer <> cpu in
              if forced then s.dirty <- false;
              s.valid <- s.valid lor me;
              Dir.record_read d ~cpu ~line = forced
            | 1 ->
              let s = get line in
              let invalidated = s.valid land lnot me in
              if s.writer <> cpu then begin
                s.writer <- cpu;
                s.wmask <- 0
              end;
              s.wmask <- s.wmask lor bit;
              s.dirty <- true;
              s.valid <- me;
              Dir.record_write d ~cpu ~line ~addr = invalidated
            | 2 ->
              (match Hashtbl.find_opt model line with
              | Some s when s.writer = cpu -> s.dirty <- false
              | _ -> ());
              Dir.writeback d ~cpu ~line;
              true
            | 3 ->
              (match Hashtbl.find_opt model line with
              | Some s -> s.valid <- s.valid land lnot me
              | None -> ());
              Dir.evict d ~cpu ~line;
              true
            | _ -> true
          in
          let v = Dir.inspect d ~cpu ~line ~addr in
          let s =
            match Hashtbl.find_opt model line with
            | Some s -> s
            | None -> { valid = 0; writer = -1; dirty = false; wmask = 0 }
          in
          let coherent = s.valid land me <> 0 in
          let sharing =
            if coherent || s.writer < 0 || s.writer = cpu then `None
            else if s.wmask land bit <> 0 then `True
            else `False
          in
          step_ok
          && Dir.v_coherent v = coherent
          && Dir.v_remote_dirty v = (s.dirty && s.writer >= 0 && s.writer <> cpu)
          && Dir.v_sharing v = sharing
          && Dir.lines d = Hashtbl.length model)
        ops)

let test_mclass () =
  Alcotest.(check bool) "conflict is replacement" true (Mclass.is_replacement Conflict);
  Alcotest.(check bool) "cold is not" false (Mclass.is_replacement Cold);
  let c = Mclass.make_counts () in
  Mclass.incr c Capacity;
  Mclass.incr c Capacity;
  Mclass.incr c Cold;
  Alcotest.(check int) "get" 2 (Mclass.get c Capacity);
  Alcotest.(check int) "total" 3 (Mclass.total c)

(* --- machine-level classification --- *)

(* Identity translation: vpage = frame, no fault cost. *)
let ident ~cpu:_ ~vpage = (vpage, 0)

let machine ?(n_cpus = 2) ?(l2_assoc = 1) () =
  Machine.create (Helpers.tiny_cfg ~n_cpus ~l2_assoc ())

let test_machine_cold_then_hit () =
  let m = machine () in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  let s = Machine.stats m ~cpu:0 in
  Alcotest.(check int) "one cold miss" 1 (Mclass.get s.l2_miss_counts Cold);
  Machine.access m ~cpu:0 ~vaddr:8 ~write:false ~translate:ident;
  Alcotest.(check int) "second access L1 hit" 1 s.l1_hits;
  Alcotest.(check int) "no more L2 misses" 1 (Mclass.total s.l2_miss_counts)

let test_machine_conflict_vs_capacity () =
  let m = machine () in
  (* tiny L2: 8 KB direct-mapped, 64 lines of 128 B.  Two addresses 8 KB
     apart conflict; ping-pong them -> conflict misses (FA would hold
     both). *)
  for _ = 1 to 4 do
    Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
    Machine.access m ~cpu:0 ~vaddr:8192 ~write:false ~translate:ident;
    (* evict from tiny L1 (512 B) so L2 is exercised each round *)
    for k = 0 to 15 do
      Machine.access m ~cpu:0 ~vaddr:(100_000 + (k * 32)) ~write:false ~translate:ident
    done
  done;
  let s = Machine.stats m ~cpu:0 in
  Alcotest.(check bool) "saw conflict misses" true (Mclass.get s.l2_miss_counts Conflict >= 3)

let test_machine_true_sharing () =
  let m = machine () in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:true ~translate:ident;
  Machine.access m ~cpu:1 ~vaddr:0 ~write:false ~translate:ident;
  let s1 = Machine.stats m ~cpu:1 in
  (* cpu1's first access ever to the line: counted cold, not sharing *)
  Alcotest.(check int) "first touch cold" 1 (Mclass.get s1.l2_miss_counts Cold);
  (* now cpu0 writes again (invalidating cpu1), cpu1 re-reads same word *)
  Machine.access m ~cpu:0 ~vaddr:0 ~write:true ~translate:ident;
  Machine.access m ~cpu:1 ~vaddr:0 ~write:false ~translate:ident;
  Alcotest.(check int) "true sharing" 1 (Mclass.get s1.l2_miss_counts True_sharing)

let test_machine_false_sharing () =
  let m = machine () in
  Machine.access m ~cpu:1 ~vaddr:8 ~write:false ~translate:ident; (* cold *)
  Machine.access m ~cpu:0 ~vaddr:0 ~write:true ~translate:ident; (* invalidates *)
  Machine.access m ~cpu:1 ~vaddr:8 ~write:false ~translate:ident; (* other word *)
  let s1 = Machine.stats m ~cpu:1 in
  Alcotest.(check int) "false sharing" 1 (Mclass.get s1.l2_miss_counts False_sharing)

let test_machine_remote_dirty_latency () =
  let cfg = Helpers.tiny_cfg () in
  let m = Machine.create cfg in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:true ~translate:ident;
  let t1 = Machine.cpu_time m ~cpu:1 in
  Machine.access m ~cpu:1 ~vaddr:0 ~write:false ~translate:ident;
  let dt = Machine.cpu_time m ~cpu:1 - t1 in
  (* remote-dirty fetch: at least the remote latency (plus TLB cost) *)
  Alcotest.(check bool) "remote latency charged" true (dt >= cfg.remote_cycles)

let test_machine_tlb_and_fault_accounting () =
  let cfg = Helpers.tiny_cfg () in
  let m = Machine.create cfg in
  let faults = ref 0 in
  let translate ~cpu:_ ~vpage =
    incr faults;
    (vpage, cfg.page_fault_cycles)
  in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate;
  let s = Machine.stats m ~cpu:0 in
  Alcotest.(check int) "tlb miss" 1 s.tlb_misses;
  Alcotest.(check int) "fault charged" cfg.page_fault_cycles s.page_fault_cycles;
  Alcotest.(check bool) "kernel time includes tlb+fault" true
    (s.kernel_cycles >= cfg.page_fault_cycles + cfg.tlb_miss_cycles);
  (* same page again: TLB hit, no new fault *)
  Machine.access m ~cpu:0 ~vaddr:8 ~write:false ~translate;
  Alcotest.(check int) "no second fault" 1 !faults

let test_machine_upgrade_invalidates () =
  let m = machine () in
  (* both CPUs read the line -> shared *)
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  Machine.access m ~cpu:1 ~vaddr:0 ~write:false ~translate:ident;
  (* cpu0 writes: upgrade, cpu1 invalidated *)
  Machine.access m ~cpu:0 ~vaddr:0 ~write:true ~translate:ident;
  let _, _, upg = Pcolor.Memsim.Bus.categories (Machine.bus m) in
  Alcotest.(check bool) "upgrade bus cycles" true (upg > 0);
  Machine.access m ~cpu:1 ~vaddr:0 ~write:false ~translate:ident;
  let s1 = Machine.stats m ~cpu:1 in
  Alcotest.(check int) "cpu1 re-read is true sharing" 1 (Mclass.get s1.l2_miss_counts True_sharing)

let test_machine_reset_stats () =
  let m = machine () in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  Machine.tick m ~cpu:0 10;
  Machine.reset_stats m;
  let s = Machine.stats m ~cpu:0 in
  Alcotest.(check int) "instructions reset" 0 s.instructions;
  Alcotest.(check int) "time reset" 0 (Machine.cpu_time m ~cpu:0);
  Alcotest.(check int) "miss counts reset" 0 (Mclass.total s.l2_miss_counts);
  (* cache contents preserved: next access hits L1 *)
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  Alcotest.(check int) "warm after reset" 1 s.l1_hits

(* The perf contract for the steady state: once a line is warm, a
   reference that hits L1 allocates nothing on the OCaml heap.  The
   tolerance absorbs the boxed float returned by [Gc.minor_words]
   itself; anything per-iteration would cost thousands of words. *)
let test_hit_path_no_alloc () =
  let m = machine () in
  Machine.access m ~cpu:0 ~vaddr:0 ~write:false ~translate:ident;
  Machine.access m ~cpu:0 ~vaddr:8 ~write:false ~translate:ident;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Machine.access m ~cpu:0 ~vaddr:8 ~write:false ~translate:ident
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "hit path allocation-free (%.0f minor words)" delta)
    true (delta <= 64.0)

(* The same contract on the miss path: a warm machine streaming over
   four times more pages than its 8-entry TLB holds refills the TLB
   every page, misses L2 on every line, writes back dirty victims and
   updates the directory — and still allocates nothing per access.  The
   translation callback returns preallocated pairs, so only the
   machine is measured. *)
let test_refill_path_no_alloc () =
  let m = machine () in
  let pages = 32 and page = 1024 and line = 128 in
  let pairs = Array.init pages (fun v -> (v, 0)) in
  let translate ~cpu:_ ~vpage = pairs.(vpage) in
  let stream () =
    for i = 0 to (pages * page / line) - 1 do
      Machine.access m ~cpu:0 ~vaddr:(i * line) ~write:(i land 1 = 1) ~translate
    done
  in
  stream ();
  let misses = (Machine.stats m ~cpu:0).tlb_misses in
  let before = Gc.minor_words () in
  for _ = 1 to 20 do
    stream ()
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check int) "every page refills" (misses + (20 * pages)) (Machine.stats m ~cpu:0).tlb_misses;
  Alcotest.(check bool)
    (Printf.sprintf "refill path allocation-free (%.0f minor words)" delta)
    true (delta <= 64.0)

(* A remote-dirty read makes the directory clean the owner's copies.
   CPU 0 writes and CPU 1 takes the line back, on line [a] by a demand
   read (an external-cache miss sourced from CPU 0's dirty copy) and on
   line [b] by a prefetch (the same sourcing on the prefetch path, then
   a demand hit on the prefetched line).  CPU 0's next write to each is
   an upgrade that invalidates CPU 1 again; for [b] it first evicts the
   line from its 2-way L1, which the prefetch path leaves dirty.  Both
   peer-cleaning loops run every round and must allocate nothing. *)
let test_remote_dirty_pingpong_no_alloc () =
  let m = machine () in
  let a = 0 and b = 4096 + 32 in
  let round () =
    Machine.access m ~cpu:0 ~vaddr:a ~write:true ~translate:ident;
    Machine.access m ~cpu:1 ~vaddr:a ~write:false ~translate:ident;
    Machine.access m ~cpu:0 ~vaddr:(b + 256) ~write:false ~translate:ident;
    Machine.access m ~cpu:0 ~vaddr:(b + 512) ~write:false ~translate:ident;
    Machine.access m ~cpu:0 ~vaddr:b ~write:true ~translate:ident;
    Machine.prefetch m ~cpu:1 ~vaddr:b;
    Machine.access m ~cpu:1 ~vaddr:b ~write:false ~translate:ident
  in
  round ();
  let s1 = Machine.stats m ~cpu:1 in
  let sharing = Mclass.get s1.l2_miss_counts True_sharing and useful = s1.pf_useful in
  let rounds = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check int) "a sourced read miss per round" (sharing + rounds)
    (Mclass.get s1.l2_miss_counts True_sharing);
  Alcotest.(check int) "a useful prefetch per round" (useful + rounds) s1.pf_useful;
  Alcotest.(check bool)
    (Printf.sprintf "remote-dirty paths allocation-free (%.0f minor words)" delta)
    true (delta <= 64.0)

(* Major-heap words allocated by [f], net of what reading the counter
   itself costs.  OCaml 5 updates [major_words] lazily, so each reading
   follows a minor collection. *)
let major_words_of f =
  let window f =
    Gc.minor ();
    let before = (Gc.quick_stat ()).major_words in
    f ();
    Gc.minor ();
    (Gc.quick_stat ()).major_words -. before
  in
  let overhead = window ignore in
  window f -. overhead

let sgi16 = Pcolor.Memsim.Config.scale (Pcolor.Memsim.Config.sgi_base ~n_cpus:8 ()) 16

(* Per-CPU memsim state is sized by the caches, not by the memory the
   CPU touches.  On the paper's 8-CPU machine at scale 16, CPU 0 first
   streams over every line of a 4×-aggregate-L2 physical range (the
   kernel's cache-derived frame pool), which sizes the shared
   directory; then every other CPU streams the same range for the first
   time.  Their shadows and [seen] sets must not grow: no major-heap
   words at all. *)
let test_pool_stream_no_major_alloc () =
  let cfg = sgi16 in
  let m = Machine.create cfg in
  let line = cfg.l2.line in
  let lines = 4 * cfg.n_cpus * (cfg.l2.size / line) in
  let pairs = Array.init (lines * line / cfg.page_size) (fun v -> (v, 0)) in
  let translate ~cpu:_ ~vpage = pairs.(vpage) in
  let stream cpu =
    for l = 0 to lines - 1 do
      Machine.access m ~cpu ~vaddr:(l * line) ~write:false ~translate
    done
  in
  stream 0;
  let words =
    major_words_of (fun () ->
        for cpu = 1 to cfg.n_cpus - 1 do
          stream cpu
        done)
  in
  Alcotest.(check int) "every stream missed L2 on every line" (cfg.n_cpus * lines)
    (Array.fold_left
       (fun acc cpu -> acc + Mclass.total (Machine.stats m ~cpu).l2_miss_counts)
       0
       (Array.init cfg.n_cpus Fun.id));
  Alcotest.(check (float 0.)) "major words while streaming" 0. words

(* [Machine.create] allocates O(cache geometry): at most 10 words per
   external-cache line per CPU, plus 16 K words for the directory's
   initial table and the other fixed-size machine and per-CPU tables. *)
let test_create_sized_by_caches () =
  List.iter
    (fun (cfg : Pcolor.Memsim.Config.t) ->
      (* kept alive, so the closing minor collection promotes and
         counts the small tables too *)
      let keep = ref None in
      let words = major_words_of (fun () -> keep := Some (Machine.create cfg)) in
      ignore (Sys.opaque_identity !keep);
      let bound = (10 * cfg.n_cpus * (cfg.l2.size / cfg.l2.line)) + (16 * 1024) in
      Alcotest.(check bool)
        (Printf.sprintf "%s x%d: %.0f major words <= %d" cfg.name cfg.n_cpus words bound)
        true
        (words <= float_of_int bound))
    [ sgi16; Pcolor.Memsim.Config.scale (Pcolor.Memsim.Config.sgi_base ~n_cpus:16 ()) 4 ]

(* [Config.max_cpus] is the one CPU-count bound: every machine model
   builds a machine at the bound (full size and scaled) and refuses one
   CPU more, and [validate] refuses an L2 line the packed directory
   cannot hold. *)
let test_models_cpu_bound () =
  let module Config = Pcolor.Memsim.Config in
  let n = Config.max_cpus in
  List.iter
    (fun (name, (model : ?n_cpus:int -> unit -> Config.t)) ->
      let cfg = model ~n_cpus:n () in
      List.iter
        (fun scale ->
          let m = Machine.create (Config.scale cfg scale) in
          Alcotest.(check int) (Printf.sprintf "%s /%d: cpus" name scale) n (Machine.n_cpus m))
        [ 1; 64 ];
      match model ~n_cpus:(n + 1) () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: %d CPUs accepted" name (n + 1))
    Config.models;
  let base = Config.sgi_base () in
  match Config.validate { base with l2 = { base.l2 with line = 256 } } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "256-byte L2 line accepted"

let suite =
  [
    ( "coherence",
      [
        Alcotest.test_case "directory fresh line" `Quick test_directory_fresh_line;
        Alcotest.test_case "directory read/write" `Quick test_directory_read_then_write;
        Alcotest.test_case "directory remote dirty" `Quick test_directory_remote_dirty;
        Alcotest.test_case "directory writeback/evict" `Quick test_directory_writeback_evict;
        Alcotest.test_case "directory word-mask reset" `Quick test_directory_word_mask_reset;
        Alcotest.test_case "mclass counters" `Quick test_mclass;
        Alcotest.test_case "machine cold then hit" `Quick test_machine_cold_then_hit;
        Alcotest.test_case "machine conflict vs capacity" `Quick test_machine_conflict_vs_capacity;
        Alcotest.test_case "machine true sharing" `Quick test_machine_true_sharing;
        Alcotest.test_case "machine false sharing" `Quick test_machine_false_sharing;
        Alcotest.test_case "machine remote-dirty latency" `Quick test_machine_remote_dirty_latency;
        Alcotest.test_case "machine tlb/fault accounting" `Quick test_machine_tlb_and_fault_accounting;
        Alcotest.test_case "machine upgrade" `Quick test_machine_upgrade_invalidates;
        Alcotest.test_case "machine reset stats" `Quick test_machine_reset_stats;
        Alcotest.test_case "machine hit path allocation-free" `Quick test_hit_path_no_alloc;
        Alcotest.test_case "machine refill path allocation-free" `Quick test_refill_path_no_alloc;
        Alcotest.test_case "machine remote-dirty paths allocation-free" `Quick
          test_remote_dirty_pingpong_no_alloc;
        Alcotest.test_case "machine pool stream allocates no major words" `Quick
          test_pool_stream_no_major_alloc;
        Alcotest.test_case "machine create sized by the caches" `Quick test_create_sized_by_caches;
        Alcotest.test_case "machine models take 1 to max_cpus CPUs" `Quick test_models_cpu_bound;
      ] );
    Helpers.qsuite "coherence:props"
      [ prop_directory_matches_model ];
  ]
