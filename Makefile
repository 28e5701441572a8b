# Development entry points. Everything is plain pytest/python underneath.

PYTHON ?= python

.PHONY: install test bench bench-tables bench-perf examples figures report smoke clean all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q -s

bench-perf:
	PYTHONPATH=src $(PYTHON) -m bench

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

figures:
	$(PYTHON) examples/render_figures.py figures

report:
	$(PYTHON) examples/build_report.py

smoke:
	$(PYTHON) -m repro pair --periods 3

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks build dist *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +

all: test bench
