(* Aggregates every suite into one alcotest runner (`dune runtest`). *)

let () =
  Alcotest.run "pcolor"
    (Test_util.suite @ Test_cache.suite @ Test_coherence.suite @ Test_vm.suite @ Test_comp.suite
   @ Test_cdpc.suite @ Test_runtime.suite @ Test_stats.suite @ Test_extensions.suite @ Test_workloads.suite @ Test_random_programs.suite @ Test_text.suite @ Test_engine_details.suite
   @ Test_determinism.suite @ Test_obs.suite @ Test_attrib.suite @ Test_sched.suite
   @ Test_walker.suite @ Test_timeline.suite @ Test_perf.suite @ Test_hash.suite @ Test_cli.suite)
