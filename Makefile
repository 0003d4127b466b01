CLI = dune exec --display=quiet bin/ferrum_cli.exe --
BENCH = dune exec --display=quiet bench/main.exe --
SMOKE = /tmp/ferrum_smoke.jsonl
VMAP = /tmp/ferrum_vulnmap.jsonl
LINTM = /tmp/ferrum_lint.jsonl
CAMP = /tmp/ferrum_campaign
STATS = /tmp/ferrum_stats
TRACE = /tmp/ferrum_trace
PROF = /tmp/ferrum_profile
FLIGHT = /tmp/ferrum_flight

.PHONY: all build test fmt exports globals smoke lint campaign stats-smoke trace-smoke serve-smoke perf bench-selftest bench-snapshot check clean

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

# Interface diet: every value a lib/*/*.mli exports must be named
# somewhere outside its own module, or be on scripts/exports.allow with
# a reason.
exports:
	sh scripts/check_exports.sh

# No process-global mutable state: a top-level ref, table, buffer or
# mutable record in lib/*/*.ml must be on scripts/globals.allow with a
# reason.
globals:
	sh scripts/check_globals.sh

# End-to-end smoke: small campaigns must produce schema-valid,
# seed-reproducible metrics and vulnerability-map streams, neither an
# untraced nor a traced campaign may depend on the checkpoint interval
# (or on having checkpoints at all), the propagation tracer must explain a replayed
# sample, the flight recorder (`trace --fault`) must dump the same
# window twice, `profile` (pipeline-stage spans + cycle tables) must
# be byte-stable without --timings and run with them, and the last
# `--progress` line must show the campaign's own Wilson half-width.
smoke: build
	$(CLI) inject kmeans -p ferrum --samples 20 --metrics $(SMOKE)
	$(CLI) metrics $(SMOKE)
	$(CLI) inject kmeans -p ferrum --samples 30 --progress \
	  > $(SMOKE).prog.out 2> $(SMOKE).prog.err
	@ci=$$(tr '\r' '\n' < $(SMOKE).prog.err \
	  | sed -n 's/.*ci ±\([0-9.]*\).*/\1/p' | tail -1); \
	hw=$$(sed -n 's/.*+\/- \([0-9.]*\).*/\1/p' $(SMOKE).prog.out); \
	if [ -z "$$ci" ] || [ "$$ci" != "$$hw" ]; then \
	  echo "smoke: --progress ended on ci ±$$ci, the campaign on +/- $$hw"; \
	  exit 1; \
	fi
	$(CLI) inject kmeans -p ferrum --samples 20 --metrics $(SMOKE).2 > /dev/null
	cmp $(SMOKE) $(SMOKE).2
	$(CLI) inject kNN -p ferrum --samples 200 --metrics $(SMOKE).knn > /dev/null
	$(CLI) inject kNN -p ferrum --samples 200 --checkpoint-interval 977 \
	  --metrics $(SMOKE).knn977 > /dev/null
	$(CLI) inject kNN -p ferrum --samples 200 --no-checkpoints \
	  --metrics $(SMOKE).knn0 > /dev/null
	cmp $(SMOKE).knn $(SMOKE).knn977
	cmp $(SMOKE).knn $(SMOKE).knn0
	$(CLI) vulnmap kmeans -p ferrum --samples 20 --metrics $(VMAP) --only-sampled > /dev/null
	$(CLI) metrics $(VMAP)
	$(CLI) vulnmap kmeans -p ferrum --samples 20 --metrics $(VMAP).2 > /dev/null
	cmp $(VMAP) $(VMAP).2
	$(CLI) vulnmap kNN -p ferrum --samples 200 --metrics $(VMAP).knn > /dev/null
	$(CLI) vulnmap kNN -p ferrum --samples 200 --checkpoint-interval 977 \
	  --metrics $(VMAP).knn977 > /dev/null
	$(CLI) vulnmap kNN -p ferrum --samples 200 --no-checkpoints \
	  --metrics $(VMAP).knn0 > /dev/null
	cmp $(VMAP).knn $(VMAP).knn977
	cmp $(VMAP).knn $(VMAP).knn0
	$(CLI) explain kmeans -p ferrum --fault 2024:0 > /dev/null
	$(CLI) trace kmeans -p ferrum --fault > $(FLIGHT).txt
	$(CLI) trace kmeans -p ferrum --fault > $(FLIGHT).2.txt
	cmp $(FLIGHT).txt $(FLIGHT).2.txt
	$(CLI) profile kmeans -p ferrum > $(PROF).txt
	$(CLI) profile kmeans -p ferrum > $(PROF).2.txt
	cmp $(PROF).txt $(PROF).2.txt
	$(CLI) profile kmeans --json > $(PROF).json
	$(CLI) profile kmeans --json > $(PROF).2.json
	cmp $(PROF).json $(PROF).2.json
	$(CLI) profile kmeans -p ferrum --timings > /dev/null
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
# schema-valid event log, byte-reproducible run files, the same run
# files as a one-round `--adaptive` run (a flat campaign is that case),
# injection output byte-identical to `inject`'s 1-shard run
# (test_campaign checks the runner against an in-process loop over
# `Faultsim.campaign_sample`), `--resume` of the first run must
# replay both part files (no part rewritten, so no worker ran) into the
# same run files byte for byte, and no worker may outlive the CLI: the
# pipe reaches end of file only once every process holding its write
# end (the CLI's stdout, inherited by each worker) has exited.  Last, a
# 1-shard kNN campaign of 1,200 samples, whose worker runs three
# windows of samples off its golden cursor, must write the injection
# file of a 3-shard run, with checkpoints every 977 steps and with none.
campaign: build
	rm -rf $(CAMP) $(CAMP).2 $(CAMP).one $(CAMP).copy $(CAMP).knn \
	  $(CAMP).w1 $(CAMP).w3
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(CAMP) --html $(CAMP).html > /dev/null
	@if [ "$$(ls -A $(CAMP)/parts | tr '\n' ' ')" != "shard-0.jsonl shard-1.jsonl " ]; then \
	  echo "campaign: parts/ must hold exactly shard-0.jsonl and shard-1.jsonl, no .tmp"; \
	  ls -A $(CAMP)/parts; exit 1; \
	fi
	$(CLI) metrics $(CAMP)/events.jsonl
	$(CLI) metrics $(CAMP)/injection.jsonl > /dev/null
	$(CLI) metrics $(CAMP)/vulnmap.jsonl > /dev/null
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(CAMP).2 > /dev/null
	cmp $(CAMP)/injection.jsonl $(CAMP).2/injection.jsonl
	cmp $(CAMP)/vulnmap.jsonl $(CAMP).2/vulnmap.jsonl
	cmp $(CAMP)/events.jsonl $(CAMP).2/events.jsonl
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 --adaptive \
	  --rounds 1 --out $(CAMP).one > /dev/null
	for f in injection.jsonl events.jsonl stats.jsonl trace.jsonl; do \
	  cmp $(CAMP)/$$f $(CAMP).one/$$f || exit 1; \
	done
	$(CLI) inject kmeans -p ferrum --samples 40 --metrics $(CAMP).seq > /dev/null
	cmp $(CAMP)/injection.jsonl $(CAMP).seq
	cp -r $(CAMP) $(CAMP).copy
	touch $(CAMP).stamp
	$(CLI) campaign --resume $(CAMP) > /dev/null
	@if [ -n "$$(find $(CAMP)/parts -newer $(CAMP).stamp)" ]; then \
	  echo "campaign: --resume reran a shard instead of replaying its part file"; \
	  exit 1; \
	fi
	for f in injection.jsonl events.jsonl stats.jsonl trace.jsonl vulnmap.jsonl; do \
	  cmp $(CAMP)/$$f $(CAMP).copy/$$f || exit 1; \
	done
	timeout 60 sh -c '$(CLI) campaign kNN -p ferrum --samples 40 --shards 2 \
	  --out $(CAMP).knn | cat > /dev/null'
	$(CLI) metrics $(CAMP).knn/injection.jsonl > /dev/null
	$(CLI) campaign kNN -p ferrum --samples 1200 --shards 3 \
	  --out $(CAMP).w3 > /dev/null
	for e in "--checkpoint-interval 977" --no-checkpoints; do \
	  rm -rf $(CAMP).w1; \
	  $(CLI) campaign kNN -p ferrum --samples 1200 --shards 1 $$e \
	    --out $(CAMP).w1 > /dev/null || exit 1; \
	  cmp $(CAMP).w3/injection.jsonl $(CAMP).w1/injection.jsonl || exit 1; \
	done
	@echo "campaign: sharded run valid, parts whole, reproducible, one-round, equal to 1 shard, resumable, no lingering worker, multi-window shards equal"

# Confidence-telemetry smoke: an adaptive vulnmap campaign must emit a
# schema-valid, byte-reproducible ferrum.stats.v1 stream, a flat run of
# the same workload must agree with it (overlapping Wilson intervals —
# `ferrum stats A B` exits 1 on significant drift), and an adaptive
# `inject` must write the records and stats of a 2-shard adaptive
# `campaign` byte for byte.
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
	rm -rf $(STATS).d
	$(CLI) inject kmeans -p ferrum --samples 60 --adaptive --rounds 3 \
	  --metrics $(STATS).inj.jsonl --stats $(STATS).inj.stats.jsonl > /dev/null
	$(CLI) campaign kmeans -p ferrum --samples 60 --adaptive --rounds 3 \
	  --shards 2 --no-trace --out $(STATS).d > /dev/null
	cmp $(STATS).inj.jsonl $(STATS).d/injection.jsonl
	cmp $(STATS).inj.stats.jsonl $(STATS).d/stats.jsonl
	@echo "stats-smoke: confidence stream valid, reproducible, drift-free, CLI = campaign"

# Distributed-tracing smoke: a 2-shard campaign must yield one stitched
# ferrum.trace.v1 document (single root, resolvable parent chains) whose
# logical rows are byte-identical across reruns, and the exporters must
# emit loadable Perfetto JSON and folded flamegraph stacks.  Each worker
# inherits the prepared target, so its engine span must report no
# golden walk and no decode.  A traced campaign re-traces exactly the
# SDCs of a checked build: none on kmeans FERRUM (no SDC) or on raw kNN
# (no checkers), every one on kNN IR-EDDI.  Those re-traces stop once
# their escape is decided: kNN IR-EDDI's engine spans must count some
# lockstep steps, but fewer than its SDCs' suffixes (flip to end, from
# `explain`), and raw kNN's none.
trace-smoke: build
	rm -rf $(TRACE).d $(TRACE).d2
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(TRACE).d --trace $(TRACE).jsonl > /dev/null
	$(CLI) metrics $(TRACE).jsonl
	@engines=$$(grep -c '"name":"engine"' $(TRACE).jsonl); \
	inherited=$$(grep '"name":"engine"' $(TRACE).jsonl \
	  | grep '"walks":0,' | grep -c '"decodes":0,'); \
	if [ "$$engines" -ne 2 ] || [ "$$inherited" -ne 2 ]; then \
	  echo "trace-smoke: each of the 2 worker engine spans must report walks 0 and decodes 0"; \
	  exit 1; \
	fi
	$(CLI) trace-export $(TRACE).d --perfetto $(TRACE).perfetto.json \
	  --folded $(TRACE).folded
	grep -q traceEvents $(TRACE).perfetto.json
	grep -q "campaign;" $(TRACE).folded
	$(CLI) campaign kmeans -p ferrum --samples 40 --shards 2 \
	  --out $(TRACE).d2 > /dev/null
	cmp $(TRACE).jsonl $(TRACE).d2/trace.jsonl
	@zero=$$(grep '"name":"engine"' $(TRACE).jsonl | grep -c '"retraces":0[,}]'); \
	if [ "$$zero" -ne 2 ]; then \
	  echo "trace-smoke: kmeans FERRUM: both engine spans must report retraces 0"; \
	  exit 1; \
	fi
	rm -rf $(TRACE).eddi $(TRACE).raw
	$(CLI) campaign kNN -p ir-eddi --samples 40 --shards 2 \
	  --out $(TRACE).eddi > /dev/null
	$(CLI) campaign kNN --samples 40 --shards 2 --out $(TRACE).raw > /dev/null
	@engine() { grep '"name":"engine"' $$1/trace.jsonl \
	  | grep -o "\"$$2\":[0-9]*" | awk -F: '{ s += $$2 } END { print s + 0 }'; }; \
	sdc=$$(grep '"event":"campaign_finished"' $(TRACE).eddi/events.jsonl \
	  | grep -o '"sdc":[0-9]*' | cut -d: -f2); \
	eddi=$$(engine $(TRACE).eddi retraces); raw=$$(engine $(TRACE).raw retraces); \
	if [ -z "$$sdc" ] || [ "$$sdc" -eq 0 ] || [ "$$eddi" -ne "$$sdc" ]; then \
	  echo "trace-smoke: kNN IR-EDDI re-traced $$eddi samples, want its $$sdc SDCs (> 0)"; \
	  exit 1; \
	fi; \
	if [ "$$raw" -ne 0 ]; then \
	  echo "trace-smoke: raw kNN re-traced $$raw samples, want 0"; \
	  exit 1; \
	fi; \
	lock=$$(engine $(TRACE).eddi lockstep_steps); \
	rawlock=$$(engine $(TRACE).raw lockstep_steps); \
	full=0; \
	for s in $$(grep '"class":"sdc"' $(TRACE).eddi/injection.jsonl \
	  | sed 's/^{"sample":\([0-9]*\),.*/\1/'); do \
	  out=$$($(CLI) explain kNN -p ir-eddi --fault 2024:$$s) || exit 1; \
	  at=$$(echo "$$out" | sed -n 's/^injected at retired instruction \([0-9]*\).*/\1/p'); \
	  end=$$(echo "$$out" | sed -n 's/^run ended after \([0-9]*\) instructions.*/\1/p'); \
	  full=$$((full + end - at + 1)); \
	done; \
	if [ "$$lock" -eq 0 ] || [ "$$lock" -ge "$$full" ]; then \
	  echo "trace-smoke: kNN IR-EDDI ran $$lock lockstep steps, want > 0 and fewer than its SDCs' $$full suffix steps"; \
	  exit 1; \
	fi; \
	if [ "$$rawlock" -ne 0 ]; then \
	  echo "trace-smoke: raw kNN ran $$rawlock lockstep steps, want 0"; \
	  exit 1; \
	fi
	@echo "trace-smoke: stitched, reproducible, exporters loadable, workers inherit the prepared target, only checked-build SDCs re-traced, and they stop early"

# Campaign-service smoke: daemon + job queue + live SSE (replay-valid)
# + content-addressed store cache hit with byte-identical artifacts.
serve-smoke: build
	sh scripts/serve_smoke.sh

# Injection-engine throughput smoke (E16): all engines must agree on
# outcome counts, the checkpointed engine must be at least as fast as the
# scratch path, and the decoded golden walk (Predecode.exec) must be
# faster per step than the reference interpreter in test/oracle.
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

check: fmt exports globals build test smoke lint campaign stats-smoke trace-smoke serve-smoke perf \
  bench-selftest

clean:
	dune clean
	rm -f $(SMOKE) $(SMOKE).2 $(VMAP) $(VMAP).2 $(LINTM) $(LINTM).2
	rm -f $(SMOKE).knn $(SMOKE).knn977 $(SMOKE).knn0
	rm -f $(SMOKE).prog.out $(SMOKE).prog.err
	rm -f $(VMAP).knn $(VMAP).knn977 $(VMAP).knn0
	rm -f $(STATS).jsonl $(STATS).2.jsonl $(STATS).flat.jsonl
	rm -f $(TRACE).jsonl $(TRACE).jsonl.wall $(TRACE).perfetto.json $(TRACE).folded
	rm -f $(PROF).txt $(PROF).2.txt $(PROF).json $(PROF).2.json
	rm -f $(FLIGHT).txt $(FLIGHT).2.txt
	rm -rf $(CAMP) $(CAMP).2 $(CAMP).one $(CAMP).html $(CAMP).seq $(TRACE).d
	rm -rf $(CAMP).copy $(CAMP).stamp $(CAMP).knn
	rm -rf $(TRACE).d2 $(TRACE).eddi $(TRACE).raw
	rm -rf .bench_build
