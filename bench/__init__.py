"""The repository benchmark: ``PYTHONPATH=src python -m bench --help``."""
