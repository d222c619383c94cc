"""The names perfbench's tracer rebinds still exist in hypsurf.

`perfbench/tracing.py` imports only the standard library, so it is loaded
here from its file; a deletion that would break `perfbench/run.py --trace 1`
then fails this suite too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hypsurf.boundary
import hypsurf.groups

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for mod_name, attr, _count in tracing.TRACED:
        mod = importlib.import_module(f"hypsurf.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"hypsurf.{mod_name}.{attr}"


def test_counted_methods_resolve(tracing):
    for mod_name, cls_name, attr in tracing.COUNTED:
        cls = getattr(importlib.import_module(f"hypsurf.{mod_name}"), cls_name)
        assert callable(vars(cls).get(attr)), f"hypsurf.{mod_name}.{cls_name}.{attr}"


def test_boundary_reexports_the_scalar_attracting_angle():
    # the tracer's rebinding test checks that both copies are rebound together
    assert hypsurf.boundary.attracting_angle is hypsurf.groups.attracting_angle
