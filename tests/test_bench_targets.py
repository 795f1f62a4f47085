"""The names the benchmark under `bench/` wraps or calls still exist.

`bench/tracer.py` records a target it cannot find as absent instead of
failing, so a rename in the package would silently drop a layer from the
traced run.  These tests fail instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets whose functions were folded into others; the benchmark still names them.
KNOWN_ABSENT = {"exactlin.RationalMatrix.nullspace", "exactlin.solve_columns", "exactlin.solve_in_span"}


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers").TARGETS
    finally:
        sys.path.remove(str(BENCH))


def _resolves(module: str, qualname: str) -> bool:
    """Whether `ikernel.<module>` defines `qualname` itself, as the tracer
    requires: the attribute must be in the owner's own namespace."""
    owner = importlib.import_module(f"ikernel.{module}")
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    return owner is not None and attr in vars(owner)


def test_every_traced_target_resolves_but_the_known_absent(targets):
    assert len(targets) == 34
    names = [f"{t.module}.{t.qualname}" for t in targets]
    assert KNOWN_ABSENT <= set(names)
    absent = [name for name, t in zip(names, targets) if not _resolves(t.module, t.qualname)]
    assert set(absent) - KNOWN_ABSENT == set()


@pytest.mark.parametrize("module, qualname", [
    ("algebra", "GradedBasis.tracked_piece"),
    ("algebra", "verify_membership_json"),
    ("cli", "main"),
])
def test_the_workloads_direct_calls_resolve(module, qualname):
    assert _resolves(module, qualname)
