# Convenience targets; everything is plain dune underneath.
#
#   make build        compile the library, CLI and harness
#   make test         tier-1 suite (alcotest + qcheck)
#   make bench-smoke  fast throughput microbenchmark + parallel-vs-
#                     sequential determinism check (< 2 min); writes
#                     BENCH_throughput.json and BENCH_mix.json
#   make bench-check  rerun the smoke bench (PCOLOR_TRIALS repetitions
#                     per timed section; BENCH_REUSE=1 reuses existing
#                     BENCH_*.json from an earlier bench-smoke) and
#                     `pcolor diff` it against the committed
#                     BENCH_throughput.json and BENCH_mix.json baselines
#                     (warn-only: timing noise is expected on shared
#                     machines), then hard-gate the batch and runs
#                     engines against the interpreter with `pcolor diff
#                     --exact` (simulated metrics must be byte-identical)
#                     and run the statistical throughput verdict
#                     `pcolor perf check` — fresh medians vs the
#                     baseline's confidence intervals at
#                     BENCH_FLOOR_MARGIN (warn-only; BENCH_STRICT=1 to
#                     fail loud) — plus `pcolor perf history` over the
#                     perf ledger
#   make timeline-check  record/replay observability-parity gate plus
#                     the timeline-off byte-identity gate: a taped run
#                     must yield the same artifact (timeline included)
#                     as a live run, attaching the sampler must not
#                     move a single simulated counter, and a tape with a
#                     bad header must fail with exit 2 and one line
#   make hash-check   hashed-LLC gates: 1-slice/identity must be
#                     byte-identical to the committed golden artifact
#                     (and to a run with no slice flags at all), a
#                     4-slice sandybridge mix under reclaim must match
#                     its golden artifact exactly, and
#                     `pcolor probe` must recover each configured hash
#                     from eviction sets exactly
#   make bench        full reproduction harness at the default scale

DUNE ?= dune
BENCH_THRESHOLD ?= 0.25
# Statistical throughput floor: each fresh section median must stay
# above this fraction of the committed baseline's interval low end
# (warn-only unless BENCH_STRICT=1).
BENCH_FLOOR_MARGIN ?= 0.5
# Trials per timed bench section (median ± MAD over the vector).
PCOLOR_TRIALS ?= 5

.PHONY: build test bench bench-smoke bench-check timeline-check hash-check clean

build:
	$(DUNE) build

test:
	$(DUNE) runtest

bench-smoke:
	PCOLOR_SCALE=64 PCOLOR_FAST=1 PCOLOR_TRIALS=$(PCOLOR_TRIALS) \
	  $(DUNE) exec bench/main.exe -- throughput mix hash

bench-check:
	@mkdir -p _build
	@# Baselines come from the last commit (git show), so bench-check
	@# stays meaningful when the working-tree BENCH_*.json were just
	@# regenerated (e.g. BENCH_REUSE=1 after bench-smoke in CI).
	@git show HEAD:BENCH_throughput.json > _build/bench_baseline.json 2>/dev/null \
	  || cp BENCH_throughput.json _build/bench_baseline.json
	@git show HEAD:BENCH_mix.json > _build/bench_mix_baseline.json 2>/dev/null \
	  || cp BENCH_mix.json _build/bench_mix_baseline.json
	@if [ -n "$(BENCH_REUSE)" ]; then \
	  echo "bench-check: BENCH_REUSE set, reusing existing BENCH_*.json"; \
	else \
	  PCOLOR_SCALE=64 PCOLOR_FAST=1 PCOLOR_TRIALS=$(PCOLOR_TRIALS) \
	    $(DUNE) exec bench/main.exe -- throughput mix; \
	fi
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/bench_baseline.json \
	  BENCH_throughput.json --threshold $(BENCH_THRESHOLD) --warn-only
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/bench_mix_baseline.json \
	  BENCH_mix.json --threshold $(BENCH_THRESHOLD) --warn-only
	@# Engine byte-identity gates: the batch and runs walker engines
	@# must produce exactly the interpreter's simulated metrics (hard
	@# failure, not warn-only — this is correctness, not timing).
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 16 --prefetch --engine=batch --metrics-out _build/engine_batch.json
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 16 --prefetch --engine=runs --metrics-out _build/engine_runs.json
	$(DUNE) exec bin/pcolor_cli.exe -- run tomcatv --policy cdpc --cpus 4 \
	  --scale 16 --prefetch --engine=interp --metrics-out _build/engine_interp.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/engine_batch.json \
	  _build/engine_interp.json --exact
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/engine_runs.json \
	  _build/engine_interp.json --exact
	@# Statistical throughput verdict: every fresh section median vs the
	@# committed baseline's sign-test interval, warn-only by default
	@# (shared machines are noisy); BENCH_STRICT=1 fails loud.
	$(DUNE) exec bin/pcolor_cli.exe -- perf check _build/bench_baseline.json \
	  BENCH_throughput.json --margin $(BENCH_FLOOR_MARGIN) $(if $(BENCH_STRICT),--strict,)
	@# Cross-PR trend from the append-only perf ledger (the smoke bench
	@# just appended this run's records).
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
	@# (report, metrics, attribution AND timeline sections).
	$(DUNE) exec bin/pcolor_cli.exe -- record tomcatv --policy cdpc --cpus 4 \
	  --scale 64 -o _build/timeline_gate.pcbt --timeline=100000 \
	  --metrics-out _build/timeline_record.json
	$(DUNE) exec bin/pcolor_cli.exe -- replay _build/timeline_gate.pcbt \
	  --timeline=100000 --metrics-out _build/timeline_replay.json
	$(DUNE) exec bin/pcolor_cli.exe -- diff _build/timeline_record.json \
	  _build/timeline_replay.json --exact
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

bench:
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
