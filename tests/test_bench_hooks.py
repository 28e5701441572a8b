"""The benchmark's probes and spans still find what they wrap.

``python -m bench`` (``bench/tracer.py``) replaces functions and methods
of ``repro`` by ``"module:qualname"`` path, from outside the program. A
renamed target would break only the traced bench run; resolving every
path here catches it in the tier-1 suite.
"""

import types

import pytest

from bench import tracer

#: every path the tracer wraps or names: the spans, the classes whose
#: methods all get spans, and the two paths the probes and spans share
PATHS = tracer.SPANS + tracer.SPAN_CLASSES + (tracer.RUN_UNTIL, tracer.WORKER)


@pytest.mark.parametrize("path", PATHS)
def test_span_target_resolves(path):
    _owner, _attr, target = tracer._resolve(path)
    assert callable(target), path


def test_every_probe_target_resolves(monkeypatch):
    from repro.workload.generator import HeartbeatGenerator

    # install_probes patches this one in place; monkeypatch restores it
    monkeypatch.setattr(HeartbeatGenerator, "__init__", HeartbeatGenerator.__init__)
    wrapped = []

    def resolve_only(path, _make):
        _owner, _attr, target = tracer._resolve(path)
        assert callable(target), path
        wrapped.append(path)

    monkeypatch.setattr(tracer, "_replace", resolve_only)
    # the probe is only read when a wrapper runs, and none runs here
    tracer.install_probes(types.SimpleNamespace())
    assert set(wrapped) >= {tracer.RUN_UNTIL, tracer.WORKER}
