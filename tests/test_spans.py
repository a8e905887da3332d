"""Every entry point the benchmark traces (`perfbench/spans.py`
`ENTRY_POINTS`) exists in the package, so a renamed function fails here
instead of silently dropping its span from the per-layer metrics."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry[1:4] for entry in module.ENTRY_POINTS]


def resolve(module, cls, attr):
    """The function the tracer wraps, looked up as it does: a method from
    the class's own namespace, a function from its module."""
    owner = importlib.import_module(module)
    if cls is None:
        return getattr(owner, attr)
    return getattr(owner, cls).__dict__[attr]


@pytest.mark.parametrize("module,cls,attr", _entry_points(), ids=str)
def test_entry_point_resolves(module, cls, attr):
    assert callable(resolve(module, cls, attr))


def test_a_renamed_entry_point_fails():
    with pytest.raises(KeyError):
        resolve("tmzv.tmodule", "TModule", "log_coeff_inverse")
    with pytest.raises(AttributeError):
        resolve("tmzv.tmodule", None, "log_coeff_closed")
