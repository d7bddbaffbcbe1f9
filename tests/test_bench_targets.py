"""The traced benchmark patches slopeforge functions by name.

bench/bench_trace.py lists them as (module, attribute) pairs; a rename
in the package must fail here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parents[1] / "bench" / "bench_trace.py"


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_TRACE = _bench_trace()


def _resolve(modname, attr):
    obj = importlib.import_module(modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _TRACE.TARGETS])
def test_trace_target_resolves(modname, attr):
    assert callable(_resolve(modname, attr))


@pytest.mark.parametrize("modname,attr", [t[:2] for t in _TRACE.GENERATORS])
def test_trace_generator_resolves(modname, attr):
    assert inspect.isgeneratorfunction(_resolve(modname, attr))
