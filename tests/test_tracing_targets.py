"""The benchmark tracer (``perfbench/tracing.py``) wraps library functions
by module attribute. A rename or deletion in ``src/`` would break only the
traced benchmark runs, so this guard reads the tracer's target lists from
its source, without importing it, and resolves every name on ``k2tlab``."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_constant(name):
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def traced_names():
    names = [(module, attr) for module, attr, _, _ in tracer_constant("TARGETS")]
    names += [("suites", body) for body in tracer_constant("SHARD_BODIES")]
    # ``install`` also wraps the shard driver itself.
    return names + [("suites", "_run_shards")]


def test_the_tracer_names_targets():
    assert len(tracer_constant("TARGETS")) > 0
    assert len(tracer_constant("SHARD_BODIES")) > 0


@pytest.mark.parametrize(
    "module, attr", traced_names(), ids=[f"{m}.{a}" for m, a in traced_names()]
)
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"k2tlab.{module}"), attr, None))
