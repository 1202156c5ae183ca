# Convenience targets for the repro repository.

PYTHON ?= python

.PHONY: install test bench bench-codec bench-hotpath bench-keyspace bench-load bench-obs bench-pipeline bench-rivals bench-tables chaos-soak cluster-smoke examples lint load-smoke metrics-smoke obs-smoke modelcheck clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q --ignore=tests/modelcheck

# -m "" clears the default "not slow_bench" filter so the full suite runs.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -m ""

# Codec throughput (vectorized GF(256) kernels vs the scalar reference);
# writes BENCH_codec.json at the repository root.
bench-codec:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_codec_throughput.py

# E18 pipelining: ops/sec vs in-flight depth over 1 ms links; writes
# BENCH_pipeline.json at the repository root.
bench-pipeline:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e18_pipeline.py

# E19 hot-path ceiling: profiled loopback ops/sec by depth with a time
# breakdown; writes BENCH_hotpath.json at the root.
bench-hotpath:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e19_hotpath.py

# E20 sharded keyspace: 10k-key Zipf mixed workload (local + procs)
# with self-certifying consistency checks; writes BENCH_keyspace.json.
bench-keyspace:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e20_keyspace.py

# E21 open-loop load rig: multi-process workers against a
# process-per-node cluster, honest (coordinated-omission-free) latency,
# SLO sweep for max sustainable throughput; writes BENCH_load.json.
bench-load:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e21_load.py

# Fast end-to-end sanity of the load rig (inline workers, ~10 s).
load-smoke:
	PYTHONPATH=src $(PYTHON) -m repro load --users 20 --rps 60 \
		--duration 3 --warmup 0.5 --cooldown 0.25 --keys 16 \
		--workers 1 --inline --no-sweep --out /tmp/BENCH_load_smoke.json
	PYTHONPATH=src $(PYTHON) tools/check_bench_schema.py /tmp/BENCH_load_smoke.json

# E22 observability overhead: depth-16 loopback throughput with the
# flight recorder off / sampling 1-in-64 / sampling plus a live scrape
# loop; asserts the <=5% budget and writes BENCH_obs.json at the root.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e22_obs.py
	PYTHONPATH=src $(PYTHON) tools/check_bench_schema.py BENCH_obs.json

# E23 rivals scorecard: every registered protocol (resilience bound,
# measured round-trips, loopback throughput, p99, safety-checked trace);
# writes BENCH_rivals.json at the repository root.
bench-rivals:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_e23_rivals.py
	PYTHONPATH=src $(PYTHON) tools/check_bench_schema.py BENCH_rivals.json

# Regenerate every experiment table (what EXPERIMENTS.md records).
bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s -m ""

# Extended chaos soak: every nemesis schedule against bsr and bcsr over
# live TCP, plus the E17 latency-under-faults benchmark (-m "" clears the
# default marker filter so the soak-marked tests run).
chaos-soak:
	$(PYTHON) -m pytest tests/ -m soak -q
	$(PYTHON) -m pytest benchmarks/bench_e17_chaos.py --benchmark-only -s -m ""

# Process-per-node smoke: just the tests that spawn real node processes
# (supervisor lifecycle, SIGKILL recovery, the acceptance soak).
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests -m procs -q

# Telemetry smoke: workload -> StatsPing scrape -> Prometheus exposition
# validation, plus the no-bare-print lint (library code must report via
# the metric registry / logging, never stdout).
metrics-smoke: lint
	PYTHONPATH=src $(PYTHON) tools/metrics_smoke.py > /dev/null

# Observability-plane smoke: flight-recorder scrape -> causal stitch
# (witness/quorum instants) -> MetricsExporter over live HTTP.
obs-smoke: lint
	PYTHONPATH=src $(PYTHON) tools/obs_smoke.py

lint:
	PYTHONPATH=src $(PYTHON) tools/check_no_print.py
	PYTHONPATH=src $(PYTHON) tools/check_metric_names.py
	PYTHONPATH=src $(PYTHON) tools/hotpath_smoke.py
	PYTHONPATH=src $(PYTHON) tools/check_ring_determinism.py
	PYTHONPATH=src $(PYTHON) tools/check_protocol_dispatch.py
	$(PYTHON) tools/check_dead_code.py
	PYTHONPATH=src $(PYTHON) tools/check_bench_schema.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples ran clean"

modelcheck:
	$(PYTHON) -m repro modelcheck --n 4
	$(PYTHON) -m repro modelcheck --n 5 --exhaustive --max-states 300000

clean:
	rm -rf .pytest_cache .hypothesis build dist src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
