# Convenience targets; everything is plain dune underneath.
#
#   make build        compile the library, CLI and harness
#   make test         tier-1 suite (alcotest + qcheck)
#   make bench-smoke  fast mix and hashed-LLC sections of the harness
#                     (< 2 min); writes BENCH_mix.json and BENCH_hash.json
#   make bench-check  rerun the mix section (BENCH_REUSE=1 reuses the
#                     BENCH_mix.json of an earlier bench-smoke) and
#                     `pcolor diff` it against the committed baseline
#                     (warn-only), then hard-gate the runs engine against
#                     the interpreter with `pcolor diff --exact` on a
#                     run and on a 4-slice reclaiming mix with a
#                     timeline (simulated metrics must be byte-identical)
#                     and diff the TLB recolor and flush-mix runs against
#                     golden/tlb_*.json, a mix with the recolor and
#                     cdpc-touch job hooks against golden/dynamic_mix.json
#                     and a 2-way-L2 run against
#                     golden/l2_2way.json and a 16-CPU prefetching
#                     mix against golden/prefetch_mix_16p.json
#                     --exact, plus `pcolor perf
#                     history` over the perf ledger.  Host speed is
#                     perfbench's job (perfbench/, BENCHMARK.json):
#                     `pcolor perf ingest` records its results and
#                     `pcolor perf check` compares two commits
#   make timeline-check  record/replay observability-parity gate plus
#                     the timeline-off byte-identity gate: a taped run
#                     (tomcatv, and a prefetching swim whose tape carries
#                     prefetch words) must yield the same artifact
#                     (timeline included) and the same Chrome trace as a
#                     live run,
#                     attaching the sampler must not
#                     move a single simulated counter, and a tape with a
#                     bad header must fail with exit 2 and one line
#   make hash-check   hashed-LLC gates: 1-slice/identity must be
#                     byte-identical to the committed golden artifact
#                     (and to a run with no slice flags at all), a
#                     4-slice sandybridge mix under reclaim must match
#                     its golden artifact exactly, and
#                     `pcolor probe` must recover each configured hash
#                     from eviction sets exactly
#   make exports-check  every `val` in lib/*/*.mli has a user outside its
#                     module, resolved by the compiler (ocamlcmt -annot
#                     over the .cmt files); test-only exports must be
#                     listed, with a reason, in tools/exports_allowlist.txt
#                     (tools/exports_check.sh, ~10 s; not part of tier-1)
#   make bench        full reproduction harness at the default scale

DUNE ?= dune
BENCH_THRESHOLD ?= 0.25

.PHONY: build test bench bench-smoke bench-check timeline-check hash-check exports-check clean

build:
	$(DUNE) build

test:
	$(DUNE) runtest

bench-smoke:
	PCOLOR_SCALE=64 PCOLOR_FAST=1 $(DUNE) exec bench/main.exe -- mix hash

bench-check:
	@mkdir -p _build
	@# The baseline comes from the last commit (git show), so bench-check
	@# stays meaningful when the working-tree BENCH_mix.json was just
	@# regenerated (e.g. BENCH_REUSE=1 after bench-smoke in CI).
	@git show HEAD:BENCH_mix.json > _build/bench_mix_baseline.json 2>/dev/null \
	  || cp BENCH_mix.json _build/bench_mix_baseline.json
	@if [ -n "$(BENCH_REUSE)" ]; then \
	  echo "bench-check: BENCH_REUSE set, reusing existing BENCH_mix.json"; \
	else \
	  PCOLOR_SCALE=64 PCOLOR_FAST=1 $(DUNE) exec bench/main.exe -- mix; \
	fi
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/bench_mix_baseline.json \
	  BENCH_mix.json --threshold $(BENCH_THRESHOLD) --warn-only
	@# Engine byte-identity gates: the runs engine must produce exactly
	@# the interpreter's simulated metrics (hard failure, not warn-only
	@# — this is correctness, not timing), on a single run and on a
	@# 4-slice sandybridge mix under reclaim with a timeline (the
	@# default engine of mix jobs, the slice-route memo, reclaim and
	@# the epoch sampler).
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 16 --prefetch --engine=runs --metrics-out _build/engine_runs.json
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 16 --prefetch --engine=interp --metrics-out _build/engine_interp.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/engine_runs.json \
	  _build/engine_interp.json --exact
	$(DUNE) exec bin/pcolor_cli.exe -- mix tomcatv swim -p 4 -s 64 --slices 4 \
	  --llc-hash sandybridge --policy cdpc-hash --mem-frames 60 --timeline=20000 \
	  --metrics-out _build/engine_mix.json
	$(DUNE) exec bin/pcolor_cli.exe -- mix tomcatv swim -p 4 -s 64 --slices 4 \
	  --llc-hash sandybridge --policy cdpc-hash --mem-frames 60 --timeline=20000 \
	  --engine=interp --metrics-out _build/engine_mix_interp.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/engine_mix.json \
	  _build/engine_mix_interp.json --exact
	@# TLB content-change gates: dynamic recoloring (Tlb.invalidate on
	@# every moved page) and a flush-on-switch mix under reclaim must
	@# reproduce their committed golden artifacts exactly.
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy dynamic --cpus 4 \
	  --scale 64 --metrics-out _build/tlb_recolor.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/tlb_recolor.json \
	  _build/tlb_recolor.json --exact
	$(DUNE) exec bin/pcolor_cli.exe -- mix tomcatv swim --scale 64 --cpus 4 \
	  --tlb flush --mem-frames 60 --policy cdpc --metrics-out _build/tlb_flush_mix.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/tlb_flush_mix.json \
	  _build/tlb_flush_mix.json --exact
	@# Mix-job wiring gate: a mix whose jobs run the dynamic-recoloring
	@# hook and the cdpc-touch order (with a timeline) must reproduce
	@# its committed golden artifact exactly.
	$(DUNE) exec bin/pcolor_cli.exe -- mix tomcatv swim -p 4 -s 64 \
	  --policy dynamic,cdpc-touch --timeline --metrics-out _build/dynamic_mix.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/dynamic_mix.json \
	  _build/dynamic_mix.json --exact
	@# Set-associative external-cache gate: every other golden runs a
	@# direct-mapped L2, so a 2-way L2 run (packed ways with LRU stamps,
	@# dirty victims) must reproduce its committed golden exactly.
	$(DUNE) exec bin/pcolor_cli.exe -- run swim --machine sgi-2way --cpus 4 \
	  --scale 64 --policy page-coloring --metrics-out _build/l2_2way.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/l2_2way.json \
	  _build/l2_2way.json --exact
	@# Prefetch and bus-contention gate: a 16-CPU prefetching mix with a
	@# timeline (non-zero late and full-queue prefetch stalls, bus-knee
	@# crossings) must reproduce its committed golden exactly, so the
	@# contention stretch of every stall counter is pinned.
	$(DUNE) exec bin/pcolor_cli.exe -- mix applu swim -p 16 -s 64 --policy cdpc \
	  --prefetch --timeline --metrics-out _build/prefetch_mix_16p.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/prefetch_mix_16p.json \
	  _build/prefetch_mix_16p.json --exact
	@# Cross-PR trend from the append-only perf ledger (perfbench
	@# results recorded with `pcolor perf ingest`).
	$(DUNE) exec bin/pcolor_cli.exe -- perf history
	@# Hashed-LLC identity + probe gates ride along (hard failures).
	$(MAKE) hash-check

hash-check:
	@mkdir -p _build
	@# 1-slice/identity byte-identity gate: the sliced external cache
	@# with the trivial hash must reproduce the committed golden
	@# artifact exactly (hard failure — DESIGN.md §16's "the default
	@# path provably did not move" contract).
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 64 --slices 1 --llc-hash identity --metrics-out _build/hash_identity.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/hash_identity.json \
	  _build/hash_identity.json --exact
	@# ... and explicit 1-slice/identity flags must be a no-op against a
	@# run with no slice flags at all.
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 64 --metrics-out _build/hash_default.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/hash_default.json \
	  _build/hash_identity.json --exact
	@# Sliced-path byte-identity gate: a 4-slice sandybridge mix under
	@# memory pressure (slice routing, coherence on peers, reclaim
	@# evictions through invalidate_frame_everywhere) must reproduce
	@# its committed golden artifact exactly.
	$(DUNE) exec bin/pcolor_cli.exe -- mix tomcatv swim --scale 64 --cpus 4 --slices 4 \
	  --llc-hash sandybridge --policy cdpc-hash --mem-frames 60 \
	  --metrics-out _build/hash_sliced_mix.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff golden/hash_sliced_mix.json \
	  _build/hash_sliced_mix.json --exact
	@# Probe self-tests: recover each configured hash from eviction
	@# sets alone; `pcolor probe` exits 1 on any matrix mismatch.
	$(DUNE) exec bin/pcolor_cli.exe -- probe --scale 64 --slices 2 --llc-hash xor-fold
	$(DUNE) exec bin/pcolor_cli.exe -- probe --scale 64 --slices 2 --llc-hash sandybridge
	$(DUNE) exec bin/pcolor_cli.exe -- probe --scale 64 --slices 4 --llc-hash sandybridge

timeline-check:
	@# Replay observability-parity gate: replaying a taped run with the
	@# same --timeline epoch must yield a byte-identical artifact
	@# (report, metrics, attribution AND timeline sections) and a
	@# byte-identical Chrome trace (phase spans, prefetch-drops and
	@# bus-knee instants, timeline counters).
	$(DUNE) exec bin/pcolor_cli.exe -- record tomcatv --policy cdpc --cpus 4 \
	  --scale 64 -o _build/timeline_gate.pcbt --timeline=100000 \
	  --metrics-out _build/timeline_record.json --trace _build/timeline_record.trace.json
	$(DUNE) exec bin/pcolor_cli.exe -- replay _build/timeline_gate.pcbt \
	  --timeline=100000 --metrics-out _build/timeline_replay.json \
	  --trace _build/timeline_replay.trace.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/timeline_record.json \
	  _build/timeline_replay.json --exact
	cmp _build/timeline_record.trace.json _build/timeline_replay.trace.json
	@# Prefetching parity pair: the tomcatv tape above issues no
	@# prefetch, so only this one carries the prefetch words of the
	@# tape's run records end to end.
	$(DUNE) exec bin/pcolor_cli.exe -- record swim --policy cdpc --prefetch --cpus 4 \
	  --scale 64 -o _build/timeline_pf.pcbt --timeline=100000 \
	  --metrics-out _build/timeline_pf_record.json --trace _build/timeline_pf_record.trace.json
	$(DUNE) exec bin/pcolor_cli.exe -- replay _build/timeline_pf.pcbt \
	  --timeline=100000 --metrics-out _build/timeline_pf_replay.json \
	  --trace _build/timeline_pf_replay.trace.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/timeline_pf_record.json \
	  _build/timeline_pf_replay.json --exact
	cmp _build/timeline_pf_record.trace.json _build/timeline_pf_replay.trace.json
	@# Bad-header gate: a copy of the tape whose header names an unknown
	@# benchmark ("tomcatX": byte 12 is the name's last letter) must be
	@# refused with exit 2 and a single stderr line, never a backtrace.
	cp _build/timeline_gate.pcbt _build/timeline_bad.pcbt
	printf X | dd of=_build/timeline_bad.pcbt bs=1 seek=12 conv=notrunc status=none
	@status=0; _build/default/bin/pcolor_cli.exe replay _build/timeline_bad.pcbt \
	  2> _build/timeline_bad.err || status=$$?; cat _build/timeline_bad.err; \
	if [ $$status -ne 2 ] || [ $$(wc -l < _build/timeline_bad.err) -ne 1 ]; then \
	  echo "timeline-check: bad-header replay must exit 2 with one stderr line (exit $$status)"; \
	  exit 1; fi
	@# Timeline-off byte-identity gate: attaching the sampler must not
	@# move a single simulated counter — the artifacts must match
	@# exactly once the timeline section itself is ignored.
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 64 --metrics-out _build/timeline_off.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/timeline_off.json \
	  _build/timeline_record.json --exact --ignore timeline

exports-check:
	DUNE=$(DUNE) tools/exports_check.sh

bench:
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
