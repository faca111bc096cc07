"""Deferred CSHIFTs: temporaries read in place by the fused native kernels.

A whole-array CSHIFT into a compiler temporary is charged to the network
meter when it runs, but its host copy waits (``repro.machine.shifts``):
a native mega-kernel reads the temporary as a shifted stream over the
source buffer, and every other reader gets it materialized first.  The
fused engine — with native kernels, with the Python blocked kernels
(``REPRO_FUSED_CC=0``) and stepwise (``REPRO_FAST_KERNEL=0``) — must
match the ``interp`` oracle bit for bit on every array, temporaries
included, with equal RunStats, on generated programs and the examples.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.analyze import analyze_source
from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import execplan
from repro.machine.ckernel import native_available
from repro.programs.swe import swe_source
from repro.runtime import cmrt
from repro.targets import build_machine

TARGETS = ("cm2", "cm5")

#: Fused-engine variants, by the environment each runs under.
VARIANTS = {
    "cc": {},
    "python-kernels": {"REPRO_FUSED_CC": "0"},
    "stepwise": {"REPRO_FAST_KERNEL": "0"},
}

#: RunStats fields the fused accounting shares with the oracle.
INVARIANTS = ("flops", "elements_computed", "comm_ops", "comm_cycles",
              "reductions", "host_cycles")

ARRAYS = ("a", "b", "c", "d")
#: Shifts mostly read these and assignments mostly write the others, so
#: adjacent statements often batch into one fused kernel that reads its
#: temporaries in place; the rest of the time sources get overwritten.
SOURCES, WRITTEN = ("a", "b"), ("c", "d")


def arrays(favoured):
    return st.one_of(st.sampled_from(favoured), st.sampled_from(favoured),
                     st.sampled_from(favoured), st.sampled_from(ARRAYS))


def fused_runs(exe, target, env, runs=2):
    """(RunResult, Machine) per run under ``env``, with a cold kernel
    cache: the first run records plan specs, later ones run kernels."""
    execplan._MEGA_KERNELS.clear()
    out = []
    with mock.patch.dict(os.environ, env):
        for _ in range(runs):
            machine = build_machine(target, exec_mode="fused")
            out.append((exe.run(machine=machine), machine))
    execplan._MEGA_KERNELS.clear()
    return out


def check_against_oracle(source, target):
    """Every fused variant is bit-identical to ``interp``; returns the
    native variant's steady-state machine."""
    exe = compile_source(source, CompilerOptions(target=target),
                         cache=False, incremental=False)
    oracle = exe.run(machine=build_machine(target, exec_mode="interp"))
    stats = None
    for label, env in VARIANTS.items():
        for result, _ in (runs := fused_runs(exe, target, env)):
            assert result.arrays.keys() == oracle.arrays.keys()
            for name, ref in oracle.arrays.items():
                got = result.arrays[name]
                assert got.dtype == ref.dtype, (label, name)
                assert got.tobytes() == ref.tobytes(), (label, name)
            assert result.output == oracle.output, label
            for field in INVARIANTS:
                assert (getattr(result.stats, field)
                        == getattr(oracle.stats, field)), (label, field)
            if stats is None:
                stats = result.stats.to_dict()
            assert result.stats.to_dict() == stats, label
        if label == "cc":
            native = runs[-1]
    audit = analyze_source(source, target=target).comm
    if audit is not None and audit["exact"]:
        assert audit["comm_cycles"] == native[0].stats.comm_cycles
    return native[1]


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------


@st.composite
def shifts(draw, shape, depth=0):
    """``cshift`` of an array or (once) of another shift, with negative
    and at-least-extent amounts."""
    if depth == 0 and draw(st.integers(0, 3)) == 0:
        src = draw(shifts(shape, depth + 1))
    else:
        src = draw(arrays(SOURCES))
    dim = draw(st.sampled_from((1, 2)))
    n = shape[dim - 1]
    amount = draw(st.integers(-2 * n - 1, 2 * n + 1))
    return f"cshift({src}, shift={amount}, dim={dim})"


@st.composite
def exprs(draw, shape):
    terms = draw(st.lists(
        st.one_of(arrays(SOURCES), shifts(shape), shifts(shape),
                  st.just("s")), min_size=1, max_size=4))
    out = terms[0]
    for term in terms[1:]:
        op = draw(st.sampled_from(("+", "-", "+ 0.5d0 *")))
        out = f"{out} {op} {term}"
    return f"0.5d0 * ({out})"


@st.composite
def simple_stmts(draw, shape):
    kind = draw(st.sampled_from(
        ("assign", "assign", "assign", "print", "reduce", "element",
         "read")))
    tgt = draw(arrays(WRITTEN))
    i = draw(st.integers(1, shape[0]))
    j = draw(st.integers(1, shape[1]))
    if kind == "assign":
        return [f"{tgt} = {draw(exprs(shape))}"]
    if kind == "print":
        return [f"print *, {draw(shifts(shape))}"]
    if kind == "reduce":
        return [f"s = 0.25d0 * s + 0.01d0 * sum({draw(shifts(shape))})"]
    if kind == "element":
        return [f"{tgt}({i}, {j}) = s - 1.0d0"]
    return [f"s = 0.5d0 * s + {tgt}({i}, {j})"]


@st.composite
def stmts(draw, shape):
    kind = draw(st.sampled_from(("simple", "simple", "do", "while")))
    if kind == "simple":
        return draw(simple_stmts(shape))
    body = [line for block in draw(st.lists(simple_stmts(shape),
                                            min_size=1, max_size=3))
            for line in block]
    trips = draw(st.integers(1, 3))
    if kind == "do":
        return [f"do k = 1, {trips}", *body, "end do"]
    cond = f"sum({draw(shifts(shape))}) > -1.0d300"
    return ["w = 0", f"do while (w < {trips} .and. {cond})", *body,
            "w = w + 1", "end do"]


@st.composite
def programs(draw):
    shape = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    lines = ["program g",
             f"double precision, array({shape[0]},{shape[1]}) :: a, b, c, d",
             "double precision s", "integer k, w"]
    for n, name in enumerate(ARRAYS):
        lines.append(f"forall (i=1:{shape[0]}, j=1:{shape[1]}) "
                     f"{name}(i,j) = i * {n + 1}.5d0 - j * 0.25d0")
    lines.append("s = 0.5d0")
    for block in draw(st.lists(stmts(shape), min_size=2, max_size=6)):
        lines.extend(block)
    lines.append("end program g")
    return "\n".join(lines) + "\n"


@settings(max_examples=12, deadline=None)
@given(programs())
def test_generated_programs_match_interp(source):
    for target in TARGETS:
        check_against_oracle(source, target)


# ---------------------------------------------------------------------------
# The cases the deferral rules name, and the examples
# ---------------------------------------------------------------------------

HEAD = """\
program p
double precision, array(6,5) :: a, b, c, d
double precision s
integer k, w
forall (i=1:6, j=1:5) a(i,j) = i * 1.5d0 + j * 0.25d0
forall (i=1:6, j=1:5) b(i,j) = i - j * 2.0d0
forall (i=1:6, j=1:5) c(i,j) = i * j * 0.125d0
d = 0.0d0
s = 0.0d0
"""

CASES = {
    # Two batched kernels read chained shifts on both axes in place.
    "chained": """\
c = cshift(cshift(a, shift=-7, dim=1), shift=11, dim=2) + b
d = cshift(a, shift=-1, dim=2) * 0.5d0 + cshift(b, shift=13, dim=1)
""",
    # The batch that reads a shift of `a` also overwrites `a`.
    "source-same-batch": """\
c = cshift(a, shift=1, dim=1) + b
a = b * 0.5d0
""",
    # A later batch overwrites the source while the temporary is live.
    "source-next-batch": """\
c = cshift(a, shift=2, dim=2) + b
d = cshift(b, shift=-1, dim=1) - c
b = d * 0.5d0
a = c + d
""",
    "print-reduce-element": """\
c = cshift(a, shift=1, dim=1) + b
d = cshift(b, shift=-2, dim=2) * 0.5d0
print *, cshift(a, shift=2, dim=2)
s = sum(cshift(b, shift=1, dim=1))
a(2,3) = s
s = s + c(1,1)
""",
    "counted-loop": """\
do k = 1, 3
   c = a + cshift(a, shift=1, dim=1) * 0.5d0
   d = cshift(cshift(b, shift=2, dim=1), shift=-1, dim=2) - c
   a = cshift(d, shift=-1, dim=2) - a * 0.25d0
   b = c * 0.5d0
end do
""",
    "while-loop": """\
w = 0
do while (w < 3 .and. sum(cshift(a, shift=1, dim=2)) > -1.0d30)
   c = cshift(a, shift=-1, dim=1) * 0.5d0 + b
   d = cshift(b, shift=7, dim=2) - c
   a = d * 0.5d0
   w = w + 1
end do
""",
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_named_cases_match_interp(case, target):
    source = HEAD + CASES[case] + "end program p\n"
    machine = check_against_oracle(source, target)
    fm = machine.fusion_metrics
    if native_available() and case == "counted-loop":
        # Batched kernels read the temporaries in place, and only the
        # last trip's survive to be copied at the end of the run.
        assert fm["shift_materialized"] < fm["shift_deferred"]


RANKS = {
    1: ("double precision, array(40) :: a, b, c",
        "forall (i=1:40) a(i) = i * 0.5d0",
        "b = a + cshift(a, shift=3) - cshift(a, shift=-45) + b * 0.5d0\n"
        "c = cshift(a, shift=1) * 0.5d0 + c"),
    3: ("double precision, array(4,5,6) :: a, b, c",
        "forall (i=1:4, j=1:5, l=1:6) a(i,j,l) = i * 1.5d0 + j - l * 3.0d0",
        "b = a + cshift(a, shift=1, dim=3) * 0.5d0 "
        "+ cshift(cshift(a, shift=-2, dim=2), shift=9, dim=1) + b * 0.5d0\n"
        "c = cshift(a, shift=-1, dim=1) * 0.25d0 + c"),
}


@pytest.mark.parametrize("rank", sorted(RANKS))
def test_other_ranks_read_in_place(rank):
    decl, init, body = RANKS[rank]
    source = "\n".join(["program r", decl, "integer k", init, "b = 0.0d0",
                        "c = 0.0d0", "do k = 1, 3", body, "end do",
                        "end program r", ""])
    fm = check_against_oracle(source, "cm2").fusion_metrics
    if native_available():
        assert fm["shift_materialized"] < fm["shift_deferred"]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("example", ["heat", "life", "redblack", "swe"])
def test_examples_match_interp(example, target):
    with open(f"examples/{example}.f90") as f:
        check_against_oracle(f.read(), target)


# ---------------------------------------------------------------------------
# Counters, and what the rules promise about copies
# ---------------------------------------------------------------------------


def test_swe_512_copies_19_of_138_shifts():
    exe = compile_source(swe_source(n=512, itmax=8), cache=False,
                         incremental=False)
    (_, _), (native, m) = fused_runs(exe, "cm2", {})
    counts = m.fusion_summary()
    assert native.stats.comm_ops == 138
    if native_available():
        assert counts["shift_deferred"] == 138
        assert counts["shift_materialized"] <= 19
    (plain, p), = fused_runs(exe, "cm2", {"REPRO_FUSED_CC": "0"}, runs=1)
    assert p.fusion_summary()["shift_deferred"] == 0
    assert p.fusion_summary()["shift_materialized"] == 138
    assert plain.stats.to_dict() == native.stats.to_dict()
    for name, ref in plain.arrays.items():
        assert native.arrays[name].tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("mode", ["fast", "interp"])
def test_other_engines_copy_every_shift(mode):
    exe = compile_source(swe_source(n=16, itmax=2), cache=False,
                         incremental=False)
    machine = build_machine("cm2", exec_mode=mode)
    exe.run(machine=machine)
    assert machine.fusion_summary()["shift_deferred"] == 0
    assert machine.fusion_summary()["shift_materialized"] == 2 + 2 * 17


def test_target_view_does_not_materialize(monkeypatch):
    """Inspecting a CSHIFT's target after the call (as a tracer does)
    reads its buffer's size only; it never forces the host copy."""
    exe = compile_source(swe_source(n=16, itmax=2), cache=False,
                         incremental=False)

    def copies():
        fm = fused_runs(exe, "cm2", {})[-1][1].fusion_metrics
        return fm["shift_deferred"], fm["shift_materialized"]

    plain = copies()
    execute_comm = cmrt.execute_comm

    def traced(machine, evaluator, clause, kind):
        execute_comm(machine, evaluator, clause, kind)
        assert cmrt._target_view(machine, clause.tgt).nbytes > 0

    monkeypatch.setattr(cmrt, "execute_comm", traced)
    assert copies() == plain


@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_megakernel_builds_do_not_grow_with_offset_variants():
    """Offsets are kernel arguments: SWE builds one kernel per batch."""
    exe = compile_source(swe_source(n=32, itmax=3), cache=False,
                         incremental=False)
    builds = sum(m.fusion_metrics["megakernel_builds"]
                 for _, m in fused_runs(exe, "cm2", {}, runs=3))
    assert builds == 5


def test_materialized_temporary_matches_numpy_roll():
    from repro.machine.plan import GLOBAL_POOL
    from repro.machine.shifts import Shifted, write_shifted

    src = np.arange(30.0).reshape(6, 5)
    dst = np.zeros_like(src)
    sh = Shifted("t", dst, "a", src, (0, 0)).shifted_by("t", dst, -7, 0)
    sh = sh.shifted_by("t", dst, 11, 1)
    write_shifted(GLOBAL_POOL, sh)
    expect = np.roll(np.roll(src, 7, axis=0), -11, axis=1)
    assert np.array_equal(dst, expect)
