# Convenience targets for the CGO 2004 TLS reproduction.

PY ?= python
#: worker processes for the report simulation matrix (0 = all cores)
JOBS ?= 0

.PHONY: install test lint ci serve report scorecard sweep examples clean

install:
	pip install -e . || python setup.py develop

# Mirrors the tier-1 verify command: no editable install required.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

lint:
	ruff check src tests examples setup.py

# lint + test, then the benchmark's helper tests, as the CI workflow does
ci: lint test
	$(PY) -m pytest perfbench -q

# Simulation-as-a-service daemon (docs/serving.md).
PORT ?= 8765
WORKERS ?= 2
serve:
	PYTHONPATH=src $(PY) -m repro serve --port $(PORT) --workers $(WORKERS)

report:
	PYTHONPATH=src $(PY) -m repro report --jobs $(JOBS) \
		--metrics-out run_metrics.json -o measured_results.md

scorecard:
	PYTHONPATH=src $(PY) -m repro scorecard

# Machine-model lab (docs/sweeping.md): cores x predictor scaling
# surface, resumable — rerun to pick up where a killed sweep stopped.
sweep:
	PYTHONPATH=src $(PY) -m repro sweep --workloads go,mcf --bars P \
		--axis num_cores=2,4,8 --axis predictor=last,stride,context \
		--jobs $(JOBS) -o sweep_out --html sweep_out/surface.html

examples:
	PYTHONPATH=src $(PY) examples/quickstart.py
	PYTHONPATH=src $(PY) examples/free_list.py
	PYTHONPATH=src $(PY) examples/scheme_comparison.py
	PYTHONPATH=src $(PY) examples/textual_ir.py
	PYTHONPATH=src $(PY) examples/timeline.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf src/repro.egg-info .pytest_cache .ruff_cache
	rm -rf .repro_cache run_metrics.json measured_results.md
