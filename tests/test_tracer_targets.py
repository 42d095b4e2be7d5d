"""veilbench's tracer patches veil functions by module and attribute name;
every name it patches must still exist, so a rename that would break the
traced benchmark run fails here."""
import copy
import importlib
import importlib.util
import os

import pytest

import veil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "veilbench_tracing", os.path.join(ROOT, "veilbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def test_veil_is_imported_from_this_checkout():
    assert os.path.dirname(os.path.abspath(veil.__file__)) == \
        os.path.join(ROOT, "src", "veil")


@pytest.mark.parametrize("module, path, _name",
                         tracing.SPAN_TARGETS + tracing.COUNT_TARGETS)
def test_span_and_count_targets_resolve(module, path, _name):
    owner, attr = tracing._resolve(module, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, _name", tracing.COPY_TARGETS)
def test_copy_targets_resolve(module, _name):
    assert importlib.import_module(module).copy is copy
