(* The runs engine's contracts:

   - a compiled {!Walker}'s run records expand to exactly the reference
     stream the per-depth interpreter would (same order, same packed
     prefetch dedup), for arbitrary affine nests and cpu sub-ranges;
   - the run consumer and the walker generator allocate nothing per
     reference in the steady state, on a sliced LLC too;
   - a full run under [--engine=runs] is byte-identical to
     [--engine=interp] across mapping policies, with and without
     prefetching;
   - a binary trace recorded from a run replays to the identical
     report;
   - {!Engine.trace_points} comes back sorted by (vpage, cpu). *)

module Ir = Pcolor.Comp.Ir
module Walker = Pcolor.Comp.Walker
module Prefetcher = Pcolor.Comp.Prefetcher
module M = Pcolor.Memsim.Machine
module Run = Pcolor.Runtime.Run
module Btrace = Pcolor.Runtime.Btrace
module Report = Pcolor.Stats.Report

(* ---------- walker emission vs the interpreter's loop ---------- *)

type event = Pf of int | Acc of int * bool

(* The oracle: the interpreter's per-depth walk (engine.ml
   [run_cpu_nest]) re-stated as a pure emitter — incremental element
   indices, prefetch resolved per reference with one-per-line dedup. *)
let interpreter_events (nest : Ir.nest) ~(plan : Prefetcher.nest_plan) ~lo0 ~hi0 ~l2_line_bits =
  let refs = Array.of_list nest.refs in
  let nrefs = Array.length refs in
  let depth = Array.length nest.bounds in
  let elem = Array.map (fun (r : Ir.ref_) -> r.offset) refs in
  let prev_line = Array.make nrefs (-1) in
  let out = ref [] in
  let rec go d =
    if d = depth then
      for r = 0 to nrefs - 1 do
        let rf = refs.(r) in
        let vaddr = rf.array.base + (elem.(r) * rf.array.elem_size) in
        if plan.(r).Prefetcher.prefetch then begin
          let pv = vaddr + (plan.(r).Prefetcher.ahead_elems * rf.array.elem_size) in
          let pl = pv lsr l2_line_bits in
          if pl <> prev_line.(r) then begin
            prev_line.(r) <- pl;
            out := Pf pv :: !out
          end
        end;
        out := Acc (vaddr, rf.is_write) :: !out
      done
    else begin
      let lo = if d = 0 then lo0 else 0 in
      let hi = if d = 0 then hi0 else nest.bounds.(d) in
      for r = 0 to nrefs - 1 do
        elem.(r) <- elem.(r) + (refs.(r).coeffs.(d) * lo)
      done;
      for _i = lo to hi - 1 do
        go (d + 1);
        for r = 0 to nrefs - 1 do
          elem.(r) <- elem.(r) + refs.(r).coeffs.(d)
        done
      done;
      for r = 0 to nrefs - 1 do
        elem.(r) <- elem.(r) - (refs.(r).coeffs.(d) * hi)
      done
    end
  in
  go 0;
  List.rev !out

(* Drain a walker through {!Walker.fill_runs} and expand every record
   back to per-reference events: tail groups advance each reference by
   its innermost byte stride and (by the producer's invariant) issue no
   prefetches.  [capacity_refs] sizes the batch: [nrefs + 1] holds
   exactly one record, so every record boundary is also a fill/resume
   split; larger batches resume mid-stream after several records. *)
let runs_events ?capacity_refs (nest : Ir.nest) ~plan ~lo0 ~hi0 ~l2_line_bits =
  let w = Walker.create ~nest ~plan ~lo0 ~hi0 ~l1_line_bits:5 ~l2_line_bits in
  let nrefs = Walker.nrefs w in
  let strides = Walker.strides w in
  let capacity_refs = Option.value capacity_refs ~default:(nrefs + 1) in
  let b = Walker.create_batch ~capacity_refs () in
  let stride = 1 + (2 * nrefs) in
  let out = ref [] in
  let exhausted = ref (Walker.finished w) in
  while not !exhausted do
    Walker.reset_batch b;
    exhausted := Walker.fill_runs w b;
    let k = ref 0 in
    while !k < b.Walker.len do
      let count = b.Walker.data.(!k) in
      if count < 1 || count > Walker.max_run_count then
        Alcotest.failf "run record count %d out of bounds" count;
      for g = 0 to count - 1 do
        for r = 0 to nrefs - 1 do
          let w0 = b.Walker.data.(!k + 1 + (2 * r)) in
          let pf = b.Walker.data.(!k + 2 + (2 * r)) in
          let vaddr = (w0 asr 1) + (strides.(r) * g) in
          if g = 0 && pf <> 0 then out := Pf (vaddr + pf) :: !out;
          out := Acc (vaddr, w0 land 1 <> 0) :: !out
        done
      done;
      k := !k + stride
    done
  done;
  List.rev !out

let random_nest_case rng =
  let depth = 1 + Random.State.int rng 3 in
  let bounds = Array.init depth (fun _ -> 1 + Random.State.int rng 5) in
  let nrefs = 1 + Random.State.int rng 3 in
  let refs =
    List.init nrefs (fun i ->
        let dims = Array.make depth 64 in
        let a = Ir.make_array ~id:i ~name:(Printf.sprintf "A%d" i) ~elem_size:8 ~dims in
        a.Ir.base <- Random.State.int rng 1_000_000 * 8;
        let coeffs = Array.init depth (fun _ -> Random.State.int rng 6 - 2) in
        Ir.ref_to a ~coeffs
          ~offset:(Random.State.int rng 13 - 4)
          ~write:(Random.State.bool rng))
  in
  let nest =
    Ir.make_nest ~label:"rand" ~kind:(Ir.Parallel { policy = Even; direction = Forward })
      ~bounds ~refs ~body_instr:(Random.State.int rng 8) ()
  in
  let lo0 = Random.State.int rng (bounds.(0) + 1) in
  let hi0 = lo0 + Random.State.int rng (bounds.(0) - lo0 + 1) in
  (nest, lo0, hi0)

let test_walker_matches_interpreter () =
  let rng = Random.State.make [| 0xB47C4 |] in
  let cfg = Helpers.tiny_cfg () in
  let l2_line_bits = 7 in
  for case = 1 to 300 do
    let nest, lo0, hi0 = random_nest_case rng in
    (* half the cases through the real prefetch planner, half without *)
    let plan =
      if case mod 2 = 0 then Prefetcher.plan_nest cfg nest else Prefetcher.find Prefetcher.none nest
    in
    let expect = interpreter_events nest ~plan ~lo0 ~hi0 ~l2_line_bits in
    (* a few records per batch, so fills resume between records *)
    let capacity_refs = (4 * List.length nest.Ir.refs) + 2 in
    let got = runs_events ~capacity_refs nest ~plan ~lo0 ~hi0 ~l2_line_bits in
    if expect <> got then
      Alcotest.failf "case %d (%s, lo0=%d hi0=%d): walker diverged after %d/%d events" case
        nest.Ir.label lo0 hi0
        (let rec common i = function
           | x :: xs, y :: ys when x = y -> common (i + 1) (xs, ys)
           | _ -> i
         in
         common 0 (expect, got))
        (List.length expect)
  done

(* The run-coalescing oracle: expanding [fill_runs] records must yield
   the interpreter's exact event stream — coalescing may only merge
   iterations whose tails are invisible (no line crossing, every tail
   prefetch dedup-suppressed).  Randomized over nest shapes, with and
   without the real prefetch planner, through a one-record batch so
   every record is produced across a resume split. *)
let test_runs_match_interpreter =
  let cfg = Helpers.tiny_cfg () in
  QCheck.Test.make ~name:"run coalescing expands to the interpreter stream" ~count:300
    QCheck.(pair int bool)
    (fun (seed, use_planner) ->
      let rng = Random.State.make [| 0xC0A1; seed |] in
      let nest, lo0, hi0 = random_nest_case rng in
      let plan =
        if use_planner then Prefetcher.plan_nest cfg nest else Prefetcher.find Prefetcher.none nest
      in
      let l2_line_bits = 7 in
      let expect = interpreter_events nest ~plan ~lo0 ~hi0 ~l2_line_bits in
      let got = runs_events nest ~plan ~lo0 ~hi0 ~l2_line_bits in
      if expect <> got then
        QCheck.Test.fail_reportf "run expansion diverged (%s, lo0=%d hi0=%d): %d vs %d events"
          nest.Ir.label lo0 hi0 (List.length expect) (List.length got);
      true)

let test_walker_iter_constants () =
  let rng = Random.State.make [| 0x5EED |] in
  let nest, lo0, hi0 = random_nest_case rng in
  let plan = Prefetcher.find Prefetcher.none nest in
  let w = Walker.create ~nest ~plan ~lo0 ~hi0 ~l1_line_bits:5 ~l2_line_bits:7 in
  Alcotest.(check int) "nrefs" (List.length nest.Ir.refs) (Walker.nrefs w);
  Alcotest.(check int) "instr_per_iter"
    (nest.Ir.body_instr + (2 * List.length nest.Ir.refs))
    (Walker.instr_per_iter w)

(* ---------- steady-state allocation pins ---------- *)

(* Same contract (and tolerance note) as the coherence suite's hit-path
   pin: the tolerance absorbs the boxed float from [Gc.minor_words];
   anything per-reference would cost tens of thousands of words.  The
   machine has a 4-slice sandybridge LLC, so every L1 miss also routes
   through the slice memo. *)
let test_consume_miss_stream_no_alloc () =
  let cfg =
    Helpers.tiny_cfg ~n_cpus:1 ~l2_slices:4 ~l2_hash:Pcolor.Memsim.Ahash.Sandybridge ()
  in
  let m = M.create cfg in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let iters = 512 in
  (* the 8 distinct pages fit the tiny TLB exactly: a steady-state
     reference never calls the (allocating) translate callback, while
     the 8 KB footprint still misses the 512 B L1 throughout.  Every
     record is a single group, so each reference takes the full
     per-reference path. *)
  let nrefs = 2 in
  let stride = 1 + (2 * nrefs) in
  let data = Array.make (iters * stride) 0 in
  for i = 0 to iters - 1 do
    let va = i mod 256 * 16 in
    let k = i * stride in
    data.(k) <- 1;
    data.(k + 1) <- Walker.pack ~vaddr:va ~write:false;
    data.(k + 3) <- Walker.pack ~vaddr:(va + 4096) ~write:true
  done;
  let consume () =
    M.consume_runs m ~cpu:0 ~translate ~data ~len:(iters * stride) ~nrefs ~strides:[| 16; 16 |]
      ~instr_per_iter:8 ~extra_onchip_stall:1
  in
  (* warm: size every table, fault every page, then measure a full
     replay of the same records (which still miss L1/L2 heavily — the
     span exceeds both) *)
  consume ();
  consume ();
  let before = Gc.minor_words () in
  consume ();
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "consume loop allocation-free (%.0f minor words for %d refs)" delta
       (nrefs * iters))
    true (delta <= 64.0)

let test_walker_fill_runs_no_alloc () =
  let a = Ir.make_array ~id:0 ~name:"A" ~elem_size:8 ~dims:[| 64; 64 |] in
  a.Ir.base <- 0;
  let nest =
    Ir.make_nest ~label:"fillruns" ~kind:(Ir.Parallel { policy = Even; direction = Forward })
      ~bounds:[| 64; 64 |]
      ~refs:[ Ir.ref_to a ~coeffs:[| 64; 1 |] ~offset:0 ~write:false ]
      ()
  in
  let plan = Prefetcher.find Prefetcher.none nest in
  let w = Walker.create ~nest ~plan ~lo0:0 ~hi0:64 ~l1_line_bits:5 ~l2_line_bits:7 in
  let b = Walker.create_batch ~capacity_refs:256 () in
  Walker.reset_batch b;
  ignore (Walker.fill_runs w b);
  let before = Gc.minor_words () in
  Walker.reset_batch b;
  ignore (Walker.fill_runs w b);
  Walker.reset_batch b;
  ignore (Walker.fill_runs w b);
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "walker fill_runs allocation-free (%.0f minor words)" delta)
    true (delta <= 64.0)

let test_consume_runs_no_alloc () =
  let cfg = Helpers.tiny_cfg ~n_cpus:1 () in
  let m = M.create cfg in
  let translate ~cpu:_ ~vpage = (vpage, 0) in
  let nrefs = 2 in
  let stride = 1 + (2 * nrefs) in
  let nrec = 128 in
  let data = Array.make (nrec * stride) 0 in
  for i = 0 to nrec - 1 do
    let k = i * stride in
    (* even records have line-aligned spans (count 4 × stride 8 = one
       32 B line) and bulk-retire once warm; odd records start at line
       offset 16, so the span check fails and every tail takes the
       per-reference fallback — both paths must be allocation-free *)
    let off = if i land 1 = 0 then 0 else 16 in
    let va = ((i mod 8) * 64) + off in
    data.(k) <- 4;
    data.(k + 1) <- Walker.pack ~vaddr:va ~write:false;
    data.(k + 2) <- 0;
    data.(k + 3) <- Walker.pack ~vaddr:(va + 32) ~write:true;
    data.(k + 4) <- 0
  done;
  let strides = [| 8; 8 |] in
  let consume () =
    M.consume_runs m ~cpu:0 ~translate ~data ~len:(nrec * stride) ~nrefs ~strides
      ~instr_per_iter:8 ~extra_onchip_stall:1
  in
  consume ();
  consume ();
  let before = Gc.minor_words () in
  consume ();
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "consume_runs allocation-free (%.0f minor words)" delta)
    true (delta <= 64.0)

(* ---------- run-level engine identity ---------- *)

let setup ?(policy = Run.Page_coloring) ?(prefetch = false) ~engine () =
  let cfg = Helpers.tiny_cfg ~n_cpus:2 () in
  {
    (Run.default_setup ~cfg ~make_program:(fun () -> Helpers.figure4_program ()) ~policy) with
    prefetch;
    collect_trace = true;
    engine;
  }

let render (o : Run.outcome) = Format.asprintf "%a" Report.pp o.Run.report

let test_engines_identical () =
  List.iter
    (fun policy ->
      List.iter
        (fun prefetch ->
          let r = Run.run (setup ~policy ~prefetch ~engine:Pcolor.Runtime.Engine.Runs ()) in
          let i = Run.run (setup ~policy ~prefetch ~engine:Pcolor.Runtime.Engine.Interp ()) in
          let label =
            Printf.sprintf "%s%s" (Run.policy_name policy) (if prefetch then "+pf" else "")
          in
          Alcotest.(check string) (label ^ " report") (render i) (render r);
          Alcotest.(check (list (pair int int))) (label ^ " trace") i.Run.trace r.Run.trace)
        [ false; true ])
    [
      Run.Page_coloring;
      Run.Bin_hopping;
      Run.Random_colors;
      Run.cdpc;
      Run.Cdpc { fallback = `Page_coloring; via_touch = true };
    ]

(* ---------- binary trace round trip ---------- *)

(* Every policy a tape can hold, prefetch on.  The hash-aware ones run
   on a 2-slice Sandy-Bridge-hashed LLC, where their bin-classified
   frame pool differs from a plain one: a replay that skipped the
   classification would grant other frames than the tape's run. *)
let test_btrace_roundtrip () =
  List.iter
    (fun policy ->
      let s =
        {
          (setup ~policy ~prefetch:true ~engine:Pcolor.Runtime.Engine.Runs ()) with
          collect_trace = false;
        }
      in
      let s =
        match policy with
        | Run.Cdpc_hash _ ->
          {
            s with
            cfg =
              Helpers.tiny_cfg ~n_cpus:2 ~l2_slices:2 ~l2_hash:Pcolor.Memsim.Ahash.Sandybridge ();
          }
        | _ -> s
      in
      let label = Run.policy_name policy ^ "+pf" in
      let path = Filename.temp_file "pcolor_btrace" ".btrace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out_bin path in
          let w =
            Btrace.create_writer oc
              {
                Btrace.bench = "fig4";
                machine = "tiny";
                n_cpus = 2;
                scale = 1;
                policy = Run.policy_name policy;
                prefetch = true;
                seed = s.Run.seed;
                cap = s.Run.cap;
                provenance = "test";
              }
          in
          let direct = Run.run ~recorder:(Btrace.recorder w) s in
          Btrace.finish w;
          close_out oc;
          let ic = open_in_bin path in
          let r = Btrace.open_reader ic in
          Alcotest.(check string) (label ^ " header bench") "fig4" (Btrace.header r).Btrace.bench;
          let replayed = Btrace.replay r ~setup:s in
          close_in ic;
          Alcotest.(check string)
            (label ^ " replayed report identical")
            (render direct) (render replayed);
          Alcotest.(check string)
            (label ^ " replayed artifact identical")
            (Pcolor.Obs.Json.to_string (Run.artifact_json direct))
            (Pcolor.Obs.Json.to_string (Run.artifact_json replayed))))
    [
      Run.Page_coloring;
      Run.Bin_hopping;
      Run.Bin_hopping_unaligned;
      Run.Random_colors;
      Run.cdpc;
      Run.Cdpc { fallback = `Bin_hopping; via_touch = false };
      Run.Cdpc { fallback = `Page_coloring; via_touch = true };
      Run.Cdpc_hash { fallback = `Page_coloring };
      Run.Cdpc_hash { fallback = `Bin_hopping };
    ]

(* ---------- trace-point ordering ---------- *)

let test_trace_points_sorted () =
  let o = Run.run (setup ~policy:Run.Bin_hopping ~engine:Pcolor.Runtime.Engine.Runs ()) in
  Alcotest.(check bool) "non-empty" true (o.Run.trace <> []);
  Alcotest.(check (list (pair int int))) "sorted by (vpage, cpu)"
    (List.sort compare o.Run.trace) o.Run.trace

let suite =
  [
    ( "walker",
      [
        Alcotest.test_case "emission matches interpreter" `Quick test_walker_matches_interpreter;
        QCheck_alcotest.to_alcotest test_runs_match_interpreter;
        Alcotest.test_case "per-iteration constants" `Quick test_walker_iter_constants;
        Alcotest.test_case "consume loop zero-alloc" `Quick test_consume_miss_stream_no_alloc;
        Alcotest.test_case "walker fill_runs zero-alloc" `Quick test_walker_fill_runs_no_alloc;
        Alcotest.test_case "consume_runs zero-alloc" `Quick test_consume_runs_no_alloc;
        Alcotest.test_case "runs == interp across policies" `Quick test_engines_identical;
        Alcotest.test_case "btrace round trip" `Quick test_btrace_roundtrip;
        Alcotest.test_case "trace points sorted" `Quick test_trace_points_sorted;
      ] );
  ]
