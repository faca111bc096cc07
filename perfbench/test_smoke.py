"""Smoke test of the benchmark itself: every workload, briefly.

Run from the repository root with ``python3 -m pytest -q
perfbench/test_smoke.py`` (a few minutes on two cores).  It checks that
every metric ``BENCHMARK.json`` names is emitted with a unit, that
another seed changes the draw but not the metric names, that the count
metrics repeat exactly for one seed, and that on swe-steady the named
run-path layers account for the traced run time.  A strict expected
failure records the one invalid edit known to end in a raw Python
exception rather than a typed diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

#: Counts that must repeat exactly across runs with one seed.
EXACT = ("machine.node_cycles", "machine.comm_cycles",
         "machine.call_cycles", "machine.host_cycles",
         "backend.peac_instrs", "runtime.comm_calls",
         "store.front.hit_ratio", "store.pass.hit_ratio",
         "store.backend.hit_ratio", "store.phase.hit_ratio")

#: The share of the traced run time on swe-steady that the named
#: run-path layers must account for.
MIN_COVERAGE = 0.9


def _run(workload: str, seed: int, trace: int) -> dict:
    args = argparse.Namespace(seed=seed, seconds=3.0, trace=trace)
    result = run.run_workload(workload, args, processes=2)
    assert result["failed"] == 0, result["reasons"]
    assert result["attempted"] > 0
    result["metrics"] = run.metrics_of(result, bool(trace))
    return result


def _names_and_units(metrics: dict, expected: dict) -> None:
    assert list(metrics) == list(expected)
    for name, m in metrics.items():
        assert m["unit"] == expected[name], name
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload(workload):
    first = _run(workload, 1, 0)
    _names_and_units(first["metrics"], metrics.END_TO_END)
    for name, m in first["metrics"].items():
        assert m["value"] > 0, name

    other = _run(workload, 2, 0)
    assert other["draw"] != first["draw"]
    assert list(other["metrics"]) == list(first["metrics"])

    traced = _run(workload, 1, 1)
    _names_and_units(traced["metrics"], metrics.PER_LAYER)
    assert traced["draw"] == first["draw"]
    again = _run(workload, 1, 1)
    for name in EXACT:
        assert again["metrics"][name] == traced["metrics"][name], name
    assert (run.metrics_of(again, False)["sim_gflops"]
            == run.metrics_of(first, False)["sim_gflops"])
    if workload == "swe-steady":
        # The runs' total time as the tracer took it is the traced
        # runs' wallclock as the benchmark took it, and the named
        # layers' self times account for it.
        t = Tracer()
        for raw in traced["raws"]:
            t.merge(raw["trace"])
        wallclock = sum(metrics.pooled(traced["raws"], "traced"))
        assert 0.95 <= t.seconds("runtime.run", 1) / wallclock <= 1.0
        coverage = traced["metrics"]["trace.coverage"]["value"]
        assert MIN_COVERAGE <= coverage <= 1.0, coverage


@pytest.mark.xfail(strict=True, reason=(
    "a call to an undefined subroutine escapes as a raw ValueError from "
    "repro/backend/cm2/fe_compiler.py instead of a typed diagnostic, so "
    "compile-edit's invalid-edit menu leaves this edit out"))
def test_undefined_call_is_a_typed_diagnostic():
    from programs import families
    from workloads import is_typed

    from repro import compile_source

    heat = next(f for f in families(run.ROOT) if f.name == "heat")
    source = heat.source.replace("end program heat",
                                 "call undefined(1)\nend program heat")
    with pytest.raises(Exception) as info:
        compile_source(source, cache=False, incremental=False)
    assert is_typed(info.value), type(info.value)

