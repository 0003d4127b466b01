CLI = dune exec --display=quiet bin/ferrum_cli.exe --
BENCH = dune exec --display=quiet bench/main.exe --
SMOKE = /tmp/ferrum_smoke.jsonl
VMAP = /tmp/ferrum_vulnmap.jsonl
LINTM = /tmp/ferrum_lint.jsonl
CAMP = /tmp/ferrum_campaign
STATS = /tmp/ferrum_stats
TRACE = /tmp/ferrum_trace

.PHONY: all build test fmt smoke lint campaign stats-smoke trace-smoke serve-smoke perf bench-selftest bench-snapshot check clean

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is optional in the dev image; dune files are always checked.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not found: checking dune files only"; \
	  out=$$(dune fmt 2>&1 | grep -v -e ocamlformat -e 'required by' -e context || true); \
	  if [ -n "$$out" ]; then echo "$$out"; echo "dune files were not formatted"; exit 1; fi; \
	fi

# End-to-end smoke: small campaigns must produce schema-valid,
# seed-reproducible metrics and vulnerability-map streams, and the
# propagation tracer must explain a replayed sample.
smoke: build
	$(CLI) inject kmeans -p ferrum --samples 20 --metrics $(SMOKE)
	$(CLI) metrics $(SMOKE)
	$(CLI) inject kmeans -p ferrum --samples 20 --metrics $(SMOKE).2 > /dev/null
	cmp $(SMOKE) $(SMOKE).2
	$(CLI) vulnmap kmeans -p ferrum --samples 20 --metrics $(VMAP) --only-sampled > /dev/null
	$(CLI) metrics $(VMAP)
	$(CLI) vulnmap kmeans -p ferrum --samples 20 --metrics $(VMAP).2 > /dev/null
	cmp $(VMAP) $(VMAP).2
	$(CLI) explain kmeans -p ferrum --fault 2024:0 > /dev/null
	@echo "smoke: metrics valid and reproducible"

# Static protection verifier: the whole catalogue must lint with zero
# error-severity findings under every technique, and the exported
# JSONL must validate and be byte-reproducible.
lint: build
	@set -e; for b in $$($(CLI) list | awk '{print $$1}'); do \
	  for t in ir-eddi hybrid ferrum; do \
	    $(CLI) lint $$b -p $$t > /dev/null || \
	      { echo "lint: $$b/$$t has error findings"; exit 1; }; \
	  done; \
	done
	$(CLI) lint kmeans -p ferrum --metrics $(LINTM) > /dev/null
	$(CLI) metrics $(LINTM)
	$(CLI) lint kmeans -p ferrum --metrics $(LINTM).2 > /dev/null
	cmp $(LINTM) $(LINTM).2
	@echo "lint: catalogue clean under all techniques"

# Sharded campaign smoke: a 2-shard fork-pool run must produce a
# schema-valid event log, byte-reproducible run files, and injection
# output byte-identical to the sequential campaign.
campaign: build
	rm -rf $(CAMP) $(CAMP).2
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(CAMP) --html $(CAMP).html > /dev/null
	$(CLI) metrics $(CAMP)/events.jsonl
	$(CLI) metrics $(CAMP)/injection.jsonl > /dev/null
	$(CLI) metrics $(CAMP)/vulnmap.jsonl > /dev/null
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(CAMP).2 > /dev/null
	cmp $(CAMP)/injection.jsonl $(CAMP).2/injection.jsonl
	cmp $(CAMP)/vulnmap.jsonl $(CAMP).2/vulnmap.jsonl
	cmp $(CAMP)/events.jsonl $(CAMP).2/events.jsonl
	$(CLI) inject kmeans -p ferrum --samples 40 --metrics $(CAMP).seq > /dev/null
	cmp $(CAMP)/injection.jsonl $(CAMP).seq
	@echo "campaign: sharded run valid, reproducible and sequential-identical"

# Confidence-telemetry smoke: an adaptive vulnmap campaign must emit a
# schema-valid, byte-reproducible ferrum.stats.v1 stream, and a flat
# run of the same workload must agree with it (overlapping Wilson
# intervals — `ferrum stats A B` exits 1 on significant drift).
stats-smoke: build
	$(CLI) vulnmap kmeans -p ferrum --samples 60 --adaptive --rounds 3 \
	  --stats $(STATS).jsonl > /dev/null
	$(CLI) metrics $(STATS).jsonl
	$(CLI) vulnmap kmeans -p ferrum --samples 60 --adaptive --rounds 3 \
	  --stats $(STATS).2.jsonl > /dev/null
	cmp $(STATS).jsonl $(STATS).2.jsonl
	$(CLI) vulnmap kmeans -p ferrum --samples 60 \
	  --stats $(STATS).flat.jsonl > /dev/null
	$(CLI) stats $(STATS).jsonl $(STATS).flat.jsonl
	@echo "stats-smoke: confidence stream valid, reproducible, drift-free"

# Distributed-tracing smoke: a 2-shard campaign must yield one stitched
# ferrum.trace.v1 document (single root, resolvable parent chains) whose
# logical rows are byte-identical across reruns, and the exporters must
# emit loadable Perfetto JSON and folded flamegraph stacks.
trace-smoke: build
	rm -rf $(TRACE).d $(TRACE).d2
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(TRACE).d --trace $(TRACE).jsonl > /dev/null
	$(CLI) metrics $(TRACE).jsonl
	$(CLI) trace-export $(TRACE).d --perfetto $(TRACE).perfetto.json \
	  --folded $(TRACE).folded
	grep -q traceEvents $(TRACE).perfetto.json
	grep -q "campaign;" $(TRACE).folded
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(TRACE).d2 > /dev/null
	cmp $(TRACE).jsonl $(TRACE).d2/trace.jsonl
	@echo "trace-smoke: stitched, reproducible, exporters loadable"

# Campaign-service smoke: daemon + job queue + live SSE (replay-valid)
# + content-addressed store cache hit with byte-identical artifacts.
serve-smoke: build
	sh scripts/serve_smoke.sh

# Injection-engine throughput smoke (E16): the checkpointed engine must
# be at least as fast as the scratch path, and all engines must agree on
# outcome counts.
perf: build
	$(BENCH) perf --smoke --samples 300

# Layered-benchmark self-test: a tiny run of every perfbench workload.
# Every declared metric must be present, every output check must pass
# (sharded records equal in-process `campaign_sample`, served artifacts
# byte-identical), sdc_pct must repeat exactly on a seed, and the traced
# run's trace must pass `ferrum trace-export`.  Takes a few minutes.
bench-selftest: build
	python3 perfbench/run.py --self-test

# Append-only benchmark snapshots: writes the next free BENCH_<n>.json
# (ferrum.bench.v1) from a small seeded run.
bench-snapshot: build
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	$(BENCH) --samples 60 --metrics BENCH_$$n.json > /dev/null && \
	$(CLI) metrics BENCH_$$n.json && \
	echo "bench-snapshot: wrote BENCH_$$n.json"

check: fmt build test smoke lint campaign stats-smoke trace-smoke serve-smoke perf \
  bench-selftest

clean:
	dune clean
	rm -f $(SMOKE) $(SMOKE).2 $(VMAP) $(VMAP).2 $(LINTM) $(LINTM).2
	rm -f $(STATS).jsonl $(STATS).2.jsonl $(STATS).flat.jsonl
	rm -f $(TRACE).jsonl $(TRACE).jsonl.wall $(TRACE).perfetto.json $(TRACE).folded
	rm -rf $(CAMP) $(CAMP).2 $(CAMP).html $(CAMP).seq $(TRACE).d $(TRACE).d2
	rm -rf .bench_build
