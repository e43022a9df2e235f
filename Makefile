PYTHON ?= python
export PYTHONPATH := src

.PHONY: check metrics test lint kernel-oracle coverage-core bench-batch bench-kernels bench-trace bench-recovery chaos crashcheck slo-check bench-cluster bench-cluster-smoke bench-failover bench-failover-smoke bench-e2e-smoke dash

## check (14 prerequisites — `make metrics` counts them), in order:
##   lint                  clock + numpy-isolation AST lints
##   test                  tier-1: all of tests/ in the default config
##                         (kernel, serialization and result-cache oracles,
##                         socket wire/registry/transport suites, docs names)
##   kernel-oracle         the kernel oracle in the two other backend configs
##   coverage-core         line-coverage floors: core, server, obs
##   bench-batch, bench-kernels, bench-trace, bench-recovery
##                         the four in-process benchmark smokes
##   chaos                 seeded chaos determinism smoke
##   crashcheck            20 seeded crash-point recovery schedules
##   slo-check             SLO alert falsification
##   bench-cluster-smoke   process cluster over sockets, real SIGKILL failover
##   bench-failover-smoke  replicated-shard failover
##   bench-e2e-smoke       the BENCHMARK.json contract at smoke scale
check: lint test kernel-oracle coverage-core bench-batch bench-kernels bench-trace bench-recovery chaos crashcheck slo-check bench-cluster-smoke bench-failover-smoke bench-e2e-smoke

## metrics: the three tracked numbers ROADMAP's "Cost of the window"
## quotes — lines of src/, lines of src/repro/core, `check:`
## prerequisites.  Not part of check: it gates nothing.
metrics:
	@echo "src lines:            $$(find src -name '*.py' | xargs cat | wc -l)"
	@echo "src/repro/core lines: $$(find src/repro/core -name '*.py' | xargs cat | wc -l)"
	@echo "check prerequisites:  $$(sed -n 's/^check: *//p' Makefile | wc -w)"

test:
	$(PYTHON) -m pytest -x -q

## lint: fail on direct time.time() usage outside clock.py, and on numpy
## imports outside repro.core.kernels.
lint:
	$(PYTHON) tools/check_clock_usage.py
	$(PYTHON) tools/check_numpy_isolation.py

## kernel-oracle: the differential oracle + property suites in the two
## configurations `make test` does not cover (it runs them with numpy
## auto-detected) — pinned to the python reference, and with numpy
## forced absent (IPS_KERNEL_DISABLE_NUMPY) so CI proves the numpy-free
## configuration keeps working without uninstalling anything.
kernel-oracle:
	IPS_KERNEL_BACKEND=python $(PYTHON) -m pytest tests/test_kernel_oracle.py tests/test_kernel_properties.py -q
	IPS_KERNEL_DISABLE_NUMPY=1 $(PYTHON) -m pytest tests/test_kernel_oracle.py tests/test_kernel_properties.py -q

## coverage-core: stdlib-tracer line coverage over src/repro/core,
## src/repro/server and src/repro/obs with hard floors (no
## coverage/pytest-cov in the image).
coverage-core:
	$(PYTHON) tools/check_core_coverage.py

bench-batch:
	$(PYTHON) benchmarks/bench_batch_query.py --smoke

## bench-kernels: reference vs columnar kernels across profile sizes and K;
## asserts the 10k-feature top-K speedup gate when numpy is available.
bench-kernels:
	$(PYTHON) benchmarks/bench_kernels.py --smoke

## bench-trace: tracing must cost <10% enabled and ~0 disabled.
bench-trace:
	$(PYTHON) benchmarks/bench_trace_overhead.py --smoke

## bench-recovery: checkpoint cost vs dirty set (flat in resident), WAL
## replay vs tail length, restart at the shipped interval, ack tax.
bench-recovery:
	$(PYTHON) benchmarks/bench_recovery.py --smoke

## chaos: seeded fault-injection smoke — no unhandled exceptions, and two
## same-seed runs must produce byte-identical fault/error counts.
chaos:
	$(PYTHON) -m repro.chaos.smoke

## crashcheck: 20 seeded crash-point schedules — every acked write must
## survive a byte/op-granular node death, same seed replays identically,
## and the oracle must prove it still catches loss with the WAL off.
crashcheck:
	$(PYTHON) -m repro.chaos.crashpoints --seeds 20

## slo-check: burn-rate alerting must be falsifiable — the paper incident
## mix pages within the incident window, a fault-free run never alerts,
## the resilient tenant stays silent, and same-seed alert timelines
## replay byte-identically.
slo-check:
	$(PYTHON) benchmarks/bench_slo_alerts.py --smoke

## bench-cluster: process-per-node scale-out over real sockets — spawns
## 1/2/4 worker OS processes, gates 4-worker >= 2x 1-worker throughput on
## machines with >= 4 cores, then SIGKILLs a worker mid-run and gates the
## client-observed error rate < 1% via failover.
bench-cluster:
	$(PYTHON) benchmarks/bench_cluster_scaleout.py

bench-cluster-smoke:
	$(PYTHON) benchmarks/bench_cluster_scaleout.py --smoke

## bench-failover: replicated shards (R=2) under a SIGKILL of the
## roster-ring primary mid-run — gates < 1% client errors, zero
## ok-but-empty reads in the dead primary's key range, a registry
## promotion, hinted-handoff drain on rejoin, delta-proportional
## replication bytes, and same-seed final-state determinism.
bench-failover:
	$(PYTHON) benchmarks/bench_failover.py

bench-failover-smoke:
	$(PYTHON) benchmarks/bench_failover.py --smoke

## bench-e2e-smoke: the BENCHMARK.json contract end to end at smoke scale
## — all four workloads on a real 2-worker socket cluster, every answer
## oracle-checked (~15 s) — then the harness's own tests (~30 s, traced
## run included).  The only target that notices a rename breaking the
## names the traced run attaches to.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke
	$(PYTHON) -m pytest benchmarks/e2e/tests -q

## dash: one-screen ASCII observability dashboard over a demo workload.
dash:
	$(PYTHON) -m repro.tools.dashboard
