# Tier-1 verification is `make check`: full build, the test suites,
# and a short 2-case smoke sweep of the parallel runner.
# `make ci` is the determinism lint (rla_lint must exit 0 on lib/),
# then check, then a per-flow trace smoke (non-empty CSV from an
# instrumented rla_trace run), a churn smoke (a faulted run must
# inject events and replay byte-identically across --jobs), and an
# invariant smoke (a trace run and a sharded scale run under
# RLA_DEBUG_INVARIANTS=1 must stay byte-identical to the uninstrumented
# runs), and a checkpoint smoke
# (checkpointed and restored runs must reproduce the uninterrupted
# trace CSV and registry JSON byte-for-byte, and a checkpoint whose
# first section-name length is overwritten with max_int must be
# refused with a typed error).

SMOKE_JSON ?= /tmp/rla_sweep_smoke.json
TRACE_CSV ?= /tmp/rla_trace_smoke.csv
CHURN_DIR ?= /tmp/rla_churn_smoke
INV_DIR ?= /tmp/rla_invariant_smoke
CKPT_DIR ?= /tmp/rla_ckpt_smoke
PAR_DIR ?= /tmp/rla_par_smoke
MF_DIR ?= /tmp/rla_meanfield_smoke
HOSTILE_DIR ?= /tmp/rla_hostile_smoke
SARIF ?= /tmp/rla_lint.sarif

.PHONY: all build test lint smoke trace-smoke churn-smoke \
  invariant-smoke ckpt-smoke par-smoke meanfield-smoke hostile-smoke \
  check ci bench bench-churn bench-perf bench-scale bench-meanfield \
  bench-hostile bench-trend clean

all: build

build:
	dune build @all

test:
	dune runtest

lint: build
	dune exec bin/rla_lint.exe -- --list-rules > /dev/null
	dune exec bin/rla_lint.exe -- --strict lib bin bench
	dune exec bin/rla_lint.exe -- --format sarif lib bin bench > $(SARIF)

smoke: build
	dune exec bin/rla_sweep.exe -- --cases 1,2 --duration 120 --warmup 40 \
	  --jobs 2 --json $(SMOKE_JSON)
	@grep -q '"runs_total":2' $(SMOKE_JSON) && echo "smoke sweep OK ($(SMOKE_JSON))"

trace-smoke: build
	dune exec bin/rla_trace.exe -- --scenario sharing --gateway droptail \
	  --duration 60 --warmup 20 --csv $(TRACE_CSV)
	@test "$$(wc -l < $(TRACE_CSV))" -gt 1 \
	  && head -1 $(TRACE_CSV) | grep -q '^time,flow,cwnd,bytes_acked$$' \
	  && echo "trace smoke OK ($(TRACE_CSV))"

churn-smoke: build
	@mkdir -p $(CHURN_DIR)
	dune exec bin/rla_trace.exe -- --scenario sharing --faults default \
	  --duration 40 --warmup 10 --seed 7 --jobs 1 \
	  --csv $(CHURN_DIR)/a.csv --json $(CHURN_DIR)/a.json 2> /dev/null
	dune exec bin/rla_trace.exe -- --scenario sharing --faults default \
	  --duration 40 --warmup 10 --seed 7 --jobs 2 \
	  --csv $(CHURN_DIR)/b.csv --json $(CHURN_DIR)/b.json 2> /dev/null
	@cmp $(CHURN_DIR)/a.csv $(CHURN_DIR)/b.csv
	@cmp $(CHURN_DIR)/a.json $(CHURN_DIR)/b.json
	@grep -q '"faults.injected":[1-9]' $(CHURN_DIR)/a.json \
	  && echo "churn smoke OK (deterministic across --jobs, faults injected)"

invariant-smoke: build
	@mkdir -p $(INV_DIR)
	dune exec bin/rla_trace.exe -- --scenario sharing --gateway droptail \
	  --duration 40 --warmup 10 --seed 7 \
	  --csv $(INV_DIR)/plain.csv --json $(INV_DIR)/plain.json
	RLA_DEBUG_INVARIANTS=1 dune exec bin/rla_trace.exe -- \
	  --scenario sharing --gateway droptail --duration 40 --warmup 10 \
	  --seed 7 --csv $(INV_DIR)/dbg.csv --json $(INV_DIR)/dbg.json
	@cmp $(INV_DIR)/plain.csv $(INV_DIR)/dbg.csv
	@cmp $(INV_DIR)/plain.json $(INV_DIR)/dbg.json
	dune exec bin/rla_sim.exe -- scale --fanout 5 --depth 3 --duration 4 \
	  > $(INV_DIR)/scale_plain.txt
	RLA_DEBUG_INVARIANTS=1 dune exec bin/rla_sim.exe -- scale --fanout 5 \
	  --depth 3 --duration 4 > $(INV_DIR)/scale_dbg.txt
	@cmp $(INV_DIR)/scale_plain.txt $(INV_DIR)/scale_dbg.txt
	dune exec bin/rla_sim.exe -- scale --fanout 10 --depth 3 --duration 4 \
	  > $(INV_DIR)/scale1k_plain.txt
	RLA_DEBUG_INVARIANTS=1 dune exec bin/rla_sim.exe -- scale --fanout 10 \
	  --depth 3 --duration 4 > $(INV_DIR)/scale1k_dbg.txt
	@cmp $(INV_DIR)/scale1k_plain.txt $(INV_DIR)/scale1k_dbg.txt
	@echo "invariant smoke OK (instrumented runs byte-identical)"

# Checkpoint/restore byte-identity: an uninterrupted run, a run that
# writes checkpoints every 10 s, and a run restored from the mid-run
# checkpoint must all dump identical trace CSV and registry JSON.  A
# copy of that checkpoint whose first section-name length reads max_int
# (0x3fff...; the header has no CRC) must fail `rla_ckpt validate` with
# exit 1 and a typed message, not an uncaught exception.
ckpt-smoke: build
	@rm -rf $(CKPT_DIR) && mkdir -p $(CKPT_DIR)
	dune exec bin/rla_trace.exe -- --scenario sharing --gateway droptail \
	  --case 3 --duration 40 --warmup 10 --seed 7 \
	  --csv $(CKPT_DIR)/plain.csv --json $(CKPT_DIR)/plain.json
	dune exec bin/rla_trace.exe -- --scenario sharing --gateway droptail \
	  --case 3 --duration 40 --warmup 10 --seed 7 \
	  --checkpoint-every 10 --checkpoint-dir $(CKPT_DIR)/ckpts \
	  --csv $(CKPT_DIR)/ckpt.csv --json $(CKPT_DIR)/ckpt.json
	@cmp $(CKPT_DIR)/plain.csv $(CKPT_DIR)/ckpt.csv
	@cmp $(CKPT_DIR)/plain.json $(CKPT_DIR)/ckpt.json
	dune exec bin/rla_ckpt.exe -- validate \
	  $(CKPT_DIR)/ckpts/case3_seed7_t000020.000.ckpt
	cp $(CKPT_DIR)/ckpts/case3_seed7_t000020.000.ckpt $(CKPT_DIR)/damaged.ckpt
	printf '\077\377\377\377\377\377\377\377' \
	  | dd of=$(CKPT_DIR)/damaged.ckpt bs=1 seek=24 conv=notrunc status=none
	@dune exec bin/rla_ckpt.exe -- validate $(CKPT_DIR)/damaged.ckpt \
	  > /dev/null 2> $(CKPT_DIR)/damaged_err.txt; \
	  status=$$?; test $$status -eq 1 \
	  && grep -q 'truncated checkpoint' $(CKPT_DIR)/damaged_err.txt \
	  || { echo "ckpt-smoke: damaged header must be a typed error (exit 1), got $$status"; exit 1; }
	dune exec bin/rla_trace.exe -- \
	  --restore $(CKPT_DIR)/ckpts/case3_seed7_t000020.000.ckpt \
	  --csv $(CKPT_DIR)/restored.csv --json $(CKPT_DIR)/restored.json
	@cmp $(CKPT_DIR)/plain.csv $(CKPT_DIR)/restored.csv
	@cmp $(CKPT_DIR)/plain.json $(CKPT_DIR)/restored.json
	@echo "ckpt smoke OK (checkpointed and restored runs byte-identical, damaged header refused)"

# Sharded-run determinism: the scale experiment's report must be
# byte-identical for --shards 1, 2 and 4 (the shard structure is fixed
# by the partition; worker domains must not be observable), and the
# checkpoint flags must be rejected with the typed error (exit 2).
par-smoke: build
	@mkdir -p $(PAR_DIR)
	dune exec bin/rla_sim.exe -- scale --fanout 5 --depth 3 --duration 4 \
	  --shards 1 > $(PAR_DIR)/s1.txt
	dune exec bin/rla_sim.exe -- scale --fanout 5 --depth 3 --duration 4 \
	  --shards 2 > $(PAR_DIR)/s2.txt
	dune exec bin/rla_sim.exe -- scale --fanout 5 --depth 3 --duration 4 \
	  --shards 4 > $(PAR_DIR)/s4.txt
	@cmp $(PAR_DIR)/s1.txt $(PAR_DIR)/s2.txt
	@cmp $(PAR_DIR)/s1.txt $(PAR_DIR)/s4.txt
	@dune exec bin/rla_sim.exe -- scale --fanout 5 --depth 3 --duration 4 \
	  --shards 2 --checkpoint-every 10 --checkpoint-dir $(PAR_DIR)/ck \
	  > /dev/null 2> $(PAR_DIR)/ck_err.txt; \
	  status=$$?; test $$status -eq 2 \
	  && grep -q 'not checkpointable' $(PAR_DIR)/ck_err.txt \
	  || { echo "par-smoke: expected checkpoint rejection (exit 2), got $$status"; exit 1; }
	@echo "par smoke OK (byte-identical across --shards, checkpoint rejected)"

# Mean-field cross-check: (1) the ODE solver must track the packet
# simulator on a shortened 3-point run (the loose tolerance absorbs
# the fairness-ratio noise of the short horizon; the full-length gate
# is `rla_sim mfvalidate` with its defaults), and (2) a solver
# trajectory CSV must be byte-identical across two invocations — the
# solver is deterministic by construction (no RNG, no wall clock).
meanfield-smoke: build
	@mkdir -p $(MF_DIR)
	dune exec bin/rla_sim.exe -- mfvalidate --duration 240 --mf-tol 0.35
	dune exec bin/rla_sim.exe -- meanfield --mf-n 64 --csv $(MF_DIR)/a.csv
	dune exec bin/rla_sim.exe -- meanfield --mf-n 64 --csv $(MF_DIR)/b.csv
	@cmp $(MF_DIR)/a.csv $(MF_DIR)/b.csv
	@echo "meanfield smoke OK (solver tracks the packet sim; CSV byte-identical)"

# Hostile-workload determinism: the adversary-mix trace CSV must be
# byte-identical across two invocations (no adversary draws from any
# RNG or wall clock — RST/data injections ride a scripted
# Faults.Timeline), and the --hostile sweep report must be
# byte-identical across --jobs 1, 2 and 4 (each mix builds its own
# network; worker domains are not observable).
hostile-smoke: build
	@mkdir -p $(HOSTILE_DIR)
	dune exec bin/rla_sim.exe -- hostile --duration 60 \
	  --csv $(HOSTILE_DIR)/a.csv > /dev/null
	dune exec bin/rla_sim.exe -- hostile --duration 60 \
	  --csv $(HOSTILE_DIR)/b.csv > /dev/null
	@cmp $(HOSTILE_DIR)/a.csv $(HOSTILE_DIR)/b.csv
	dune exec bin/rla_sweep.exe -- --hostile --seeds 1 --duration 60 \
	  --warmup 20 --jobs 1 --json $(HOSTILE_DIR)/j1.json > /dev/null
	dune exec bin/rla_sweep.exe -- --hostile --seeds 1 --duration 60 \
	  --warmup 20 --jobs 2 --json $(HOSTILE_DIR)/j2.json > /dev/null
	dune exec bin/rla_sweep.exe -- --hostile --seeds 1 --duration 60 \
	  --warmup 20 --jobs 4 --json $(HOSTILE_DIR)/j4.json > /dev/null
	@cmp $(HOSTILE_DIR)/j1.json $(HOSTILE_DIR)/j2.json
	@cmp $(HOSTILE_DIR)/j1.json $(HOSTILE_DIR)/j4.json
	@echo "hostile smoke OK (trace CSV and sweep JSON byte-identical)"

check: build test smoke

ci: lint check trace-smoke churn-smoke invariant-smoke ckpt-smoke \
  par-smoke meanfield-smoke hostile-smoke bench-trend

bench:
	dune exec bench/main.exe

bench-churn: build
	dune exec bin/rla_sweep.exe -- --churn --cases 1,3 --seeds 2 \
	  --duration 120 --warmup 40 --jobs 2 --json BENCH_churn.json

# Runs the perf scenarios, rewrites BENCH_perf.json, and appends one
# line to the append-only BENCH_perf_history.jsonl trend record.
bench-perf: build
	dune exec bench/perf.exe -- BENCH_perf.json

# Sharded-scaling bench: events/s and speedup at --shards 1/2/4/8 on
# the 10648-receiver tree, rewritten to BENCH_scale.json with one line
# appended to BENCH_scale_history.jsonl (same trend protocol as
# bench-perf).  RLA_BENCH_SCALE_DURATION / RLA_BENCH_SCALE_FANOUT
# shrink it for quick local runs.
bench-scale: build
	dune exec bench/scale.exe -- BENCH_scale.json

# Hostile adversary-mix bench: fig-6 case 3 under every adversary mix
# (none / non-backoff / ack division / optimistic ack / blind RST),
# rewritten to BENCH_hostile.json with one line appended to
# BENCH_hostile_history.jsonl.  The report is byte-identical at any
# --jobs (metrics scrubbed; events/s uses simulated seconds), so the
# file is diffable in review and the trend gate never sees machine
# noise — only event-count drift.
bench-hostile: build
	dune exec bin/rla_sweep.exe -- --hostile --seeds 1 --duration 120 \
	  --warmup 40 --jobs 4 --json BENCH_hostile.json
	cat BENCH_hostile.json >> BENCH_hostile_history.jsonl

# Mean-field regime map: the (w_q, max_p, n) grid up to n = 10^6,
# rewritten to BENCH_meanfield.json.  Byte-identical at any --jobs
# (the payload pins jobs/wall_s), so the file is diffable in review.
bench-meanfield: build
	dune exec bin/rla_sweep.exe -- --meanfield --jobs 2 --json BENCH_meanfield.json

# Regression gate (wired into `make ci`): compares the checked-in
# BENCH_perf.json / BENCH_scale.json against the best comparable run
# (same duration/seed) in their history files and fails on a >10%
# events/s drop.  Pure comparison — no simulation runs.  Tolerance
# override: RLA_BENCH_TREND_TOLERANCE=0.2 make bench-trend
bench-trend: build
	dune exec bench/trend.exe -- BENCH_perf.json BENCH_perf_history.jsonl
	dune exec bench/trend.exe -- BENCH_scale.json BENCH_scale_history.jsonl
	dune exec bench/trend.exe -- BENCH_hostile.json BENCH_hostile_history.jsonl

clean:
	dune clean
