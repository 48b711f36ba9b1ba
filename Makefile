# Convenience targets for the reproduction.

.PHONY: install test test-slow lint loc fuzz bench-smoke bench-e2e bench-e2e-smoke net-smoke population-smoke mega profile experiments experiments-check examples all clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-1 runs Hypothesis derandomised and without an example database
# (tests/conftest.py); the slow suite keeps the randomised profile.
test-slow:
	PYTHONPATH=src python -m pytest -q -m slow --hypothesis-profile=randomised

# ruff + mypy where they are installed (CI); otherwise the stdlib
# unused-import scan, so a dev container without them still gates F401.
LINT_PATHS = src/repro/core src/repro/protocols src/repro/sim src/repro/net src/repro/metrics src/repro/runtime src/repro/workloads

lint:
	@if python -c "import ruff" 2>/dev/null; then \
		ruff check $(LINT_PATHS) && mypy; \
	else \
		python tools/lint_fallback.py $(LINT_PATHS) src/repro/auth tools; \
	fi

# The src/ line count that ROADMAP.md and CHANGES.md track.
loc:
	@find src -name '*.py' | xargs wc -l | tail -1

fuzz:
	PYTHONPATH=src python -m repro fuzz --cells 50 --seed 7 --jobs 4

# Every micro cell once at quick size; the cells' own assertions gate.
bench-smoke:
	PYTHONPATH=src python -m repro bench --quick --repeats 1

# The end-to-end benchmark the PR driver measures (BENCHMARK.json): four
# workloads at 20 s each, every metric printed by name and unit.
bench-e2e:
	python3 -m bench_e2e

# The same suite at ~1 s per workload, gated: fails when the summary
# lists a problem (a crashed workload, a missing metric, a unit or name
# that left BENCHMARK.json) or any workload had a failed operation.
bench-e2e-smoke:
	python3 -m bench_e2e --smoke | tail -n 1 | python3 -c "import json, sys; \
	summary = json.load(sys.stdin); \
	failed = {name: w['ops_failed'] for name, w in summary['workloads'].items() if w['ops_failed'] > 0}; \
	[print(name, 'req_per_s %.0f' % w['end_to_end']['req_per_s'], 'ops', w['ops_attempted']) for name, w in summary['workloads'].items()]; \
	print('problems:', summary['problems'], 'failed ops:', failed); \
	sys.exit(1 if summary['problems'] or failed else 0)"

# Boot a live cell, hit it with a closed-loop load burst (the report's
# wire line shows the segments coalescing), then run the sim<->socket
# differential suite (slow fuzz sample included).
net-smoke:
	rm -f /tmp/repro-cell.json
	PYTHONPATH=src python -m repro serve --role cell --managers 3 --hosts 2 \
		--secret smoke --port-file /tmp/repro-cell.json --run-for 120 & pid=$$!; \
	for i in $$(seq 1 50); do [ -f /tmp/repro-cell.json ] && break; sleep 0.2; done; \
	PYTHONPATH=src python -m repro load --port-file /tmp/repro-cell.json \
		--secret smoke --clients 4 --duration 5; status=$$?; \
	kill $$pid 2>/dev/null; rm -f /tmp/repro-cell.json; exit $$status
	PYTHONPATH=src python -m pytest -q tests/test_net -m ""

# The CI population gate at local speed: 10^5 principals, K=4 shards,
# invariants on, wall-clock budgeted.
population-smoke:
	PYTHONPATH=src python -m repro.experiments.cli mega --principals 100000 \
		--duration 120 --check-invariants --budget 240

# The full mega soak: 10^6 principals (minutes of wall-clock; run on a
# quiet machine and watch peak RSS stay O(population)).
mega:
	PYTHONPATH=src python -m repro.experiments.cli mega --principals 1000000 \
		--duration 120 --check-invariants

# cProfile the message-heaviest bench cell; stats land in
# ./repro-bench.prof (readable with `python -m pstats`).
profile:
	PYTHONPATH=src python -m repro bench cell_quorum --quick --profile

experiments:
	PYTHONPATH=src python -m repro.experiments.cli

# Every experiment must print results/experiments_output.txt exactly,
# apart from the "completed in" timing lines (about 6 s).
experiments-check: SHELL := /bin/bash
experiments-check:
	set -o pipefail; PYTHONPATH=src python -m repro | grep -v "completed in" \
		| diff -u <(grep -v "completed in" results/experiments_output.txt) -

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
		echo; \
	done

all: test bench-smoke experiments

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache src/repro.egg-info
