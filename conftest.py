"""Repo-root pytest bootstrap: make ``repro`` importable everywhere.

Two jobs about path hygiene, plus the one oracle fixture that both
``tests/`` and ``benchmarks/`` use:

- Put the absolute ``src/`` directory on ``sys.path`` so the suite works
  no matter how pytest was invoked (``pytest``, ``python -m pytest``,
  from an IDE, with or without ``PYTHONPATH=src``).
- Export the same absolute path through ``os.environ["PYTHONPATH"]`` so
  every subprocess the suite launches — example scripts, CLI smoke runs,
  and ``ProcessPoolExecutor`` sweep workers under spawn-style start
  methods — can also import ``repro`` regardless of its working
  directory. A relative ``PYTHONPATH=src`` breaks as soon as a child
  runs with ``cwd`` somewhere else (e.g. a tmp_path).
- ``band_partition``: the column-band shard partition the tile planner
  replaced, kept as the baseline the shard balance gates measure against.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent
SRC = str(ROOT / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in (str(pathlib.Path(p).resolve()) for p in _paths):
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)


def band_partition_oracle(n_shards, cells_x, cells_y, weights):
    """Column bands: shard ``s`` owns the same columns on every row."""
    return [(c % cells_x) * n_shards // cells_x for c in range(cells_x * cells_y)]


@pytest.fixture(scope="session")
def band_partition():
    """Context manager: inside it, every shard plan cuts column bands.

    ``with band_partition(): run()`` replays a sharded run with
    :func:`band_partition_oracle` in place of
    ``repro.shard._tile_partition``, ignoring the cell weights. Process
    shard workers fork inside the context and inherit the patch.
    """

    @contextlib.contextmanager
    def oracle():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.shard._tile_partition", band_partition_oracle)
            yield

    return oracle
