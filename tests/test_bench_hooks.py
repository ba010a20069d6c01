"""The benchmark's trace hooks still name the program's entry points.

``bench/run.py:install_spans`` wraps functions by the names their callers
look them up under, and ``spans.Tracer.patch`` raises on a name the
program no longer defines, so a renamed or deleted entry point would
otherwise show up only when a traced benchmark runs.  Here the hooks go
in for each dispatcher, a small trace replays under them, and they come
out again.
"""

import importlib
from pathlib import Path

import pytest

from hpcdispatch import sim
from hpcdispatch.dispatch import DISPATCHERS, DispatchConfig
from hpcdispatch.dispatch.instance import DispatchDecision
from hpcdispatch.kernel.core import Solver
from hpcdispatch.sim import SimConfig, run_simulation
from hpcdispatch.system import preset
from hpcdispatch.workload import eurora_mix, generate_trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``run`` and ``spans`` modules."""
    monkeypatch.syspath_prepend(str(BENCH))
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    assert Path(run.__file__).resolve().parent == BENCH
    return run, spans


def replay(dispatcher):
    config = SimConfig(dispatcher, dispatch=DispatchConfig(budget_ms=600_000, node_limit=1500))
    return run_simulation(generate_trace(eurora_mix(jobs=20, seed=3)), preset("eurora"), config)


@pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
def test_benchmark_hooks_install_trace_and_come_out(dispatcher, bench):
    run, spans = bench
    untraced = replay(dispatcher)
    before = (
        sim.snapshot_instance, DISPATCHERS[dispatcher], sim.validate_allocation,
        sim.fits_system, vars(DispatchDecision)["violations"], vars(Solver)["solve"],
    )
    tracer = spans.Tracer()
    run.install_spans(tracer, dispatcher)
    try:
        traced = replay(dispatcher)
    finally:
        tracer.unpatch()
    after = (
        sim.snapshot_instance, DISPATCHERS[dispatcher], sim.validate_allocation,
        sim.fits_system, vars(DispatchDecision)["violations"], vars(Solver)["solve"],
    )
    assert all(a is b for a, b in zip(after, before))
    assert traced.events == untraced.events  # tracing changes no decision
    totals = tracer.totals()
    invocations = len(traced.invocations)
    assert invocations > 0
    for name in ("sim.snapshot", "dispatch.call", "dispatch.violations"):
        assert totals[name]["calls"] == invocations, name
    assert totals["system.validate_allocation"]["calls"] == invocations
