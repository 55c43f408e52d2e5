PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint faults faults-matrix bench bench-json exec-smoke replay-smoke scale-smoke elastic-smoke dedup-smoke qos-smoke

# tier-1: the full deterministic suite
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# lint: the stdlib AST gate (deprecated-shim import ban) always runs;
# ruff runs when installed (CI installs it, dev containers may not)
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.lintcheck src benchmarks
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipped (the AST gate above still ran)"; \
	fi

# the crash-point fault-injection suite only
faults:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m faults -q

# standalone matrix report: crash at every registered point with a
# fixed seed and print the per-point outcome table
faults-matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.faultmatrix --random 10

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

# perf trajectory: run the pinned benchmark subset on the parallel
# cached execution engine and emit the machine-readable baseline
bench-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --out BENCH_baseline.json

# smallest end-to-end proof of the execution engine: one sweep cell,
# cold then warm, warm run must execute nothing
exec-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --smoke

# smallest end-to-end proof of the replay engine: capture two live
# cells, replay each faithfully, fail on any byte divergence
replay-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --replay-smoke

# smallest end-to-end proof of the scale work: DES throughput is sane,
# serial / persistent-pool records are identical, and a persistent-pool
# dispatch round costs less than starting one fresh worker process
scale-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --scale-smoke

# smallest end-to-end proof of elastic membership: join + live migration
# + drain + newcomer failure; incremental failover must beat the
# full-resync baseline and the checkpoint-latency SLO must hold
elastic-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --elastic-smoke

# smallest end-to-end proof of the payload codec: a paired
# incremental-vs-codec grid (wire bytes must drop on every cell) plus
# a real-payload checkpoint -> crash -> digest-verified restart
dedup-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --dedup-smoke

# smallest end-to-end proof of the tenancy layer: the pinned
# multi-tenant scenario must keep the guaranteed tenant's interval/RPO
# attainment at target while best-effort tenants are throttled, with
# queueing + preemption exercised and tenant attribution end-to-end
qos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --qos-smoke
