"""The benchmark's tracer (perfbench/tracing.py) wraps moplab functions by
name. Installing and uninstalling it here makes renaming or deleting any
traced name fail this suite, not only the benchmark's own tests."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = load_tracing().Tracer("tier-1")
    try:
        tracer.install()
        wrapped = list(tracer._originals)
        assert wrapped
        assert all(current(owner, attr) is not fn for owner, attr, fn in wrapped)
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is fn for owner, attr, fn in wrapped)
