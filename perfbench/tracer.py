"""Span tracer that times calls into the compiler's public functions.

Nothing inside ``src/`` is instrumented: :func:`instrument` replaces
module and class attributes (``parse_program``, ``Machine.call_fused``,
``ArtifactStore.get`` ...) with thin wrappers that open a span around
the original call.  A span records its duration and the part of it its
child spans cover, so each layer's *self* time is its duration minus
its children's.  Spans live in memory as per-name aggregates; counters
ride alongside them and are bumped where the work happens.

The wrappers cost one flag test while the tracer is disabled, so a
traced run can alternate traced and untraced operations in one process
and report the tracing overhead against the untraced ones.
"""

from __future__ import annotations

import dataclasses
import time

_now = time.perf_counter_ns


class Tracer:
    """Nested spans aggregated by name, plus named counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        #: name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, _now(), 0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = _now() - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def seconds(self, name: str, which: int = 2) -> float:
        """Self (``which=2``) or total (``which=1``) seconds of a span."""
        agg = self.spans.get(name)
        return agg[which] / 1e9 if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.spans.get(name)
        return agg[0] if agg else 0

    def export(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}

    def merge(self, exported: dict) -> None:
        """Fold another process's :meth:`export` into this tracer."""
        for name, (calls, total, own) in exported["spans"].items():
            agg = self.spans.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, value in exported["counters"].items():
            self.count(name, value)


TRACER = Tracer()


def _spanned(fn, span: str, after=None, op: str | None = None):
    """``fn`` wrapped in a span named ``span``.

    ``after(result, args, kwargs)`` runs once the span is closed, so the
    bookkeeping it does (counters) is not charged to the layer.  ``op``
    names a counter bumped on every call, raising or not.
    """
    tracer = TRACER

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if op is not None:
            tracer.count(op)
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap(owner, attr: str, span: str, after=None,
          op: str | None = None) -> None:
    """Replace ``owner.attr`` with a spanned call of the original."""
    setattr(owner, attr, _spanned(getattr(owner, attr), span, after, op))


class _TimedKernel:
    """A mega-kernel whose every call is a ``machine.kernel`` span."""

    __slots__ = ("kern", "native")

    def __init__(self, kern) -> None:
        self.kern = kern
        self.native = bool(getattr(kern, "native", False))

    def __call__(self, *args) -> None:
        if not TRACER.enabled:
            return self.kern(*args)
        TRACER.enter("machine.kernel")
        start = _now()
        try:
            self.kern(*args)
        finally:
            TRACER.exit()
        if self.native:
            TRACER.count("machine.kernel_native_ns", _now() - start)


#: The transform passes timed one by one (the registry's entry points).
PASSES = ("promote", "normalize", "pad_masks", "dse", "block", "fuse_exec",
          "recheck")


def instrument() -> None:
    """Install every layer's wrappers (call once, before any work)."""
    from repro.backend.cm2.partition import Cm2Compiler
    from repro.driver import compiler as drv
    from repro.frontend import parser
    from repro.machine import execplan
    from repro.machine.cm2 import Machine
    from repro.machine.plan import BufferPool, RoutinePlan
    from repro.runtime import cmrt
    from repro.runtime.host import HostExecutor
    from repro.service.store import ArtifactStore
    from repro.transform.passes import PASSES as REGISTRY

    t = TRACER

    # -- compile path: frontend, lowering, transform, backend, store --
    _wrap(drv, "compile_unit", "compile", op="op.compile")
    _wrap(drv, "_compile_incremental", "compile", op="op.compile")
    _wrap(parser, "tokenize", "frontend.lex",
          after=lambda r, a, k: t.count("frontend.tokens", len(r)))
    _wrap(drv, "parse_program", "frontend.parse")
    _wrap(drv, "lower_program", "lowering.lower")
    _wrap(drv, "check_program", "lowering.check")

    def after_optimize(result, args, kwargs):
        # Cross-check the wrapper times against the manager's own
        # PipelineTrace, and take IR sizes from it (free: already
        # measured by the manager).
        for timing in result.trace.passes:
            if not timing.enabled or timing.cached:
                continue
            if timing.name == "promote":
                t.count("lowering.nir_nodes", timing.ir_before)
                t.count("lowering.lowered", 1)
            if timing.name in PASSES:
                t.count(f"transform.{timing.name}_ir", timing.ir_after)
                t.count(f"transform.{timing.name}_runs", 1)
                t.count("transform.pipeline_trace_ns", timing.seconds * 1e9)

    _wrap(drv, "optimize", "transform.optimize", after=after_optimize)
    for name in PASSES:
        p = REGISTRY._passes[name]
        REGISTRY._passes[name] = dataclasses.replace(
            p, run=_spanned(p.run, f"transform.{name}"))

    def after_backend(host_program, args, kwargs):
        routines = host_program.routines.values()
        t.count("backend.programs", 1)
        t.count("backend.peac_instrs", sum(len(r.body) for r in routines))
        t.count("backend.spills", sum(r.spill_slots for r in routines))

    _wrap(Cm2Compiler, "compile_program", "backend.compile",
          after=after_backend)
    _wrap(Cm2Compiler, "compile_compute", "backend.phase")

    # Hit ratios and bytes written come from each store's own counters
    # and footprint (see workloads.py); the wrappers only time the calls.
    _wrap(ArtifactStore, "get", "store.get")
    _wrap(ArtifactStore, "head", "store.head")
    _wrap(ArtifactStore, "put", "store.put")

    # -- run path: runtime (host executor, cmrt) and machine ------------
    def after_run(result, args, kwargs):
        s = result.stats
        t.count("machine.node_cycles", s.node_cycles)
        t.count("machine.comm_cycles", s.comm_cycles)
        t.count("machine.call_cycles", s.call_cycles)
        t.count("machine.host_cycles", s.host_cycles)

    _wrap(drv.Executable, "run", "runtime.run", after=after_run,
          op="op.run")
    _wrap(HostExecutor, "run", "runtime.host")

    def after_comm(result, args, kwargs):
        machine, clause = args[0], args[2]
        t.count("runtime.comm_calls")
        t.count("runtime.comm_bytes",
                cmrt._target_view(machine, clause.tgt).nbytes)

    _wrap(cmrt, "execute_comm", "runtime.comm", after=after_comm)
    _wrap(cmrt, "execute_reduce", "runtime.reduce")
    _wrap(Machine, "call_routine", "machine.dispatch")
    _wrap(Machine, "call_fused", "machine.dispatch")
    _wrap(RoutinePlan, "execute", "machine.kernel")
    _wrap(execplan, "try_native", "machine.kernel_build")
    _wrap(execplan, "_build", "machine.kernel_build")

    kernel_for = execplan.ExecutionPlan._kernel_for

    def timed_kernel_for(self, machine, dispatches):
        kern = kernel_for(self, machine, dispatches)
        return None if kern is None else _TimedKernel(kern)

    execplan.ExecutionPlan._kernel_for = timed_kernel_for

    def after_alloc(home, args, kwargs):
        t.count("machine.alloc_bytes", home.data.nbytes)

    def after_acquire(arr, args, kwargs):
        t.count("machine.alloc_bytes", arr.nbytes)

    _wrap(Machine, "alloc", "machine.alloc", after=after_alloc)
    _wrap(BufferPool, "acquire", "machine.alloc", after=after_acquire)
