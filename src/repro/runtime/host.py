"""Host (front-end) program representation and executor.

The FE/NIR compiler "translates the NIR remainder program into SPARC
assembly code plus runtime system library calls" (section 5.2).  The
reproduction's host program is a small IR of front-end operations —
allocation, scalar work, control flow, CM runtime calls, and PEAC
dispatches with their IFIFO argument pushes — interpreted against a
:class:`~repro.machine.cm2.Machine`.  A textual disassembly is available
via :func:`format_host_program`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .. import nir
from ..machine.execplan import shifts_in_place
from ..machine.plan import get_plan
from ..peac.isa import Routine
from . import cmrt
from .nir_eval import NirEvaluator

Region = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HostOp:
    """Base class for host-program operations."""


@dataclass(frozen=True)
class Alloc(HostOp):
    name: str
    extents: tuple[int, ...]
    dtype: str  # numpy dtype name
    layout: tuple[str, ...] | None = None  # !layout: directive modes


@dataclass(frozen=True)
class ScalarInit(HostOp):
    name: str
    value: object


@dataclass(frozen=True)
class ArgBinding:
    """One actual argument of a node call (matches a ParamSpec)."""

    kind: str                       # 'subgrid' | 'coord' | 'scalar'
    name: str                       # parameter name
    array: str | None = None        # subgrid: array name
    region: Region | None = None    # subgrid/coord: region, None = full
    extents: tuple[int, ...] = ()   # coord: base extents
    axis: int = 0                   # coord: axis
    lo: int = 1                     # coord: first point along the axis
    step: int = 1                   # coord: axis stride
    shift: int = 0                  # halo: circular shift amount
    value: nir.Value | None = None  # scalar: host-evaluated NIR value


@dataclass(frozen=True)
class NodeCall(HostOp):
    """Dispatch a PEAC routine: push args over the IFIFO, start the loop."""

    routine: Routine
    args: tuple[ArgBinding, ...]
    region_extents: tuple[int, ...]
    real_elements: int
    layout: tuple[str, ...] | None = None  # target array's !layout: modes


@dataclass(frozen=True)
class CommMove(HostOp):
    """A communication phase: one MOVE executed by the CM runtime."""

    clause: nir.MoveClause
    kind: str  # 'cshift'|'eoshift'|'transpose'|'spread'|'copy'|'gather'


@dataclass(frozen=True)
class ReduceMove(HostOp):
    """A reduction phase: runtime combine tree into a front-end scalar."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class ScalarMove(HostOp):
    """Front-end scalar assignment."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class ElementMove(HostOp):
    """Serial element-at-a-time array access executed by the front end."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class Loop(HostOp):
    var: str
    lo: int
    hi: int
    step: int
    body: tuple[HostOp, ...]


@dataclass(frozen=True)
class WhileOp(HostOp):
    cond: nir.Value
    body: tuple[HostOp, ...]


@dataclass(frozen=True)
class IfOp(HostOp):
    cond: nir.Value
    then: tuple[HostOp, ...]
    els: tuple[HostOp, ...] = ()


@dataclass(frozen=True)
class Print(HostOp):
    values: tuple[nir.Value, ...]


@dataclass(frozen=True)
class Stop(HostOp):
    pass


@dataclass
class HostProgram:
    """The complete front-end program plus its node routines."""

    name: str
    ops: tuple[HostOp, ...]
    routines: dict[str, Routine] = field(default_factory=dict)


class StopExecution(Exception):
    """Internal signal for the STOP statement."""


def _value_arrays(value: nir.Value) -> frozenset[str]:
    """Array names a host-evaluated NIR value reads."""
    return frozenset(n.name for n in nir.values.walk(value)
                     if isinstance(n, nir.AVar))


def _clause_reads(clause: nir.MoveClause) -> frozenset[str]:
    reads = _value_arrays(clause.src) | _value_arrays(clause.mask)
    tgt = clause.tgt
    if isinstance(tgt, nir.AVar) and isinstance(tgt.field, nir.Subscript):
        for idx in tgt.field.indices:
            if isinstance(idx, nir.IndexRange):
                for part in (idx.lo, idx.hi, idx.stride):
                    if part is not None:
                        reads |= _value_arrays(part)
            else:
                reads |= _value_arrays(idx)
    return reads


def _op_effects(op: HostOp) -> tuple[frozenset[str], frozenset[str]]:
    """Name-level (array reads, array writes) of a non-call host op."""
    if isinstance(op, CommMove):
        return _clause_reads(op.clause), frozenset({op.clause.tgt.name})
    if isinstance(op, ReduceMove):
        tgt = op.clause.tgt
        writes = (frozenset({tgt.name}) if isinstance(tgt, nir.AVar)
                  else frozenset())
        return _clause_reads(op.clause), writes
    if isinstance(op, ElementMove):
        tgt = frozenset({op.clause.tgt.name})
        return _clause_reads(op.clause) | tgt, tgt
    if isinstance(op, ScalarMove):
        return _clause_reads(op.clause), frozenset()
    if isinstance(op, Print):
        reads: frozenset[str] = frozenset()
        for value in op.values:
            reads |= _value_arrays(value)
        return reads, frozenset()
    if isinstance(op, Alloc):
        return frozenset(), frozenset({op.name})
    return frozenset(), frozenset()


_NONE: frozenset[str] = frozenset()
_LIVENESS: dict[int, "_Liveness"] = {}


def _bodies(op: HostOp) -> tuple:
    if isinstance(op, (Loop, WhileOp)):
        return (op.body,)
    if isinstance(op, IfOp):
        return (op.then, op.els)
    return ()


def _whole_target(op: HostOp) -> str | None:
    """The array a communication MOVE overwrites whole, if any."""
    if (isinstance(op, CommMove)
            and isinstance(op.clause.tgt.field, nir.Everywhere)):
        return op.clause.tgt.name
    return None


class _Liveness:
    """Which deferred CSHIFT temporaries may still be observed, and where.

    A temporary is observable at a point when some path from it reads
    the temporary (a kernel, the evaluator, the end of the run) before a
    whole-array communication MOVE rewrites it.  Each op sequence keeps
    backward (gen, kill) summaries of its suffixes over the temporaries
    a CSHIFT may defer; :meth:`live` folds them outward through the
    executor's frames.  A counted loop's trip count is known when it
    runs, so inside its body the last trip continues after the loop and
    any other trip into the body again.
    """

    def __init__(self, program: HostProgram) -> None:
        names: set[str] = set()
        stack = [program.ops]
        while stack:
            for op in stack.pop():
                tgt = _whole_target(op)
                if tgt is not None and op.kind == "cshift":
                    names.add(tgt)
                stack.extend(_bodies(op))
        self.ops = program.ops
        self.universe = frozenset(names)
        self.seqs: dict[int, list[tuple[frozenset, frozenset]]] = {}
        self._summary(program.ops)

    @classmethod
    def of(cls, program: HostProgram) -> "_Liveness":
        """The facts for a program, computed once while it lives."""
        got = _LIVENESS.get(id(program))
        if got is None or got.ops is not program.ops:
            got = _LIVENESS[id(program)] = cls(program)
            weakref.finalize(program, _LIVENESS.pop, id(program), None)
        return got

    def _summary(self, ops) -> tuple[frozenset, frozenset]:
        got = self.seqs.get(id(ops))
        if got is None:
            got = [(_NONE, _NONE)]
            for op in reversed(ops):
                gen, kill = self._op(op)
                g, k = got[-1]
                got.append((gen | (g - kill), kill | k))
            got.reverse()
            self.seqs[id(ops)] = got
        return got[0]

    def _op(self, op: HostOp) -> tuple[frozenset, frozenset]:
        names = self.universe
        if isinstance(op, Loop):
            trips = (len(range(op.lo, op.hi + (1 if op.step > 0 else -1),
                               op.step)) if op.step else 0)
            body = self._summary(op.body)
            return body if trips else (_NONE, _NONE)
        if isinstance(op, WhileOp):
            return (_value_arrays(op.cond) & names
                    | self._summary(op.body)[0]), _NONE
        if isinstance(op, IfOp):
            gt, kt = self._summary(op.then)
            ge, ke = self._summary(op.els)
            return _value_arrays(op.cond) & names | gt | ge, kt & ke
        if isinstance(op, Stop):
            return names, names
        if isinstance(op, NodeCall):
            used: set[str] = set()
            for arg in op.args:
                if arg.array is not None:
                    used.add(arg.array)
                if arg.value is not None:
                    used |= _value_arrays(arg.value)
            return frozenset(used) & names, _NONE
        reads, writes = _op_effects(op)
        tgt = _whole_target(op)
        if tgt is not None:
            return reads & names, frozenset({tgt}) & names
        return (reads | writes) & names, _NONE

    def live(self, frames: list) -> frozenset:
        """Observable temporaries before the op the frames point at."""
        out = self.universe  # the end of the run observes every array
        for depth, (ops, i, _kind, _last) in enumerate(frames):
            summary = self.seqs[id(ops)]
            if depth == len(frames) - 1:
                gen, kill = summary[i]
                return gen | (out - kill)
            _, _, kind, last = frames[depth + 1]
            # A WHILE body ends in another test of the condition.
            gen, kill = summary[i if kind == "while" else i + 1]
            out = gen | (out - kill)
            if kind == "loop" and not last:
                gen, kill = self.seqs[id(frames[depth + 1][0])][0]
                out = gen | (out - kill)
        return out


class HostExecutor:
    """Interprets a host program against a simulated machine.

    With ``fuse_exec`` (and a machine in ``"fused"`` mode) adjacent node
    calls accumulate into a pending batch handed to
    :meth:`~repro.machine.cm2.Machine.call_fused` as one dispatch.  Node
    calls always append — the batch preserves their order — while other
    runtime work is *hoisted* ahead of the batch when its name-level
    array footprint is independent of every pending call; dependent work
    (a CSHIFT reading an array the batch writes, a reduction, serial
    element access) flushes the batch first.  Argument resolution is
    persistent: each call site's subgrid and coordinate views are cached
    and revalidated by array identity instead of re-resolved per trip.

    When a native mega-kernel can read them in place, whole-array
    CSHIFTs into temporaries are deferred (:mod:`repro.machine.shifts`).
    The executor decides when a deferral must become a host copy: every
    evaluator read materializes, and before anything writes a deferred
    temporary's source the temporary is materialized if it may still be
    observed (:class:`_Liveness`) and forgotten otherwise.  The run ends
    with every remaining temporary materialized.
    """

    def __init__(self, machine, fuse_exec: bool = False) -> None:
        self.machine = machine
        self.scalars: dict[str, object] = {}
        self.output: list[str] = []
        self.evaluator = NirEvaluator(read_array=self._read_array,
                                      scalars=self.scalars)
        self.fuse_exec = bool(fuse_exec) and machine.exec_mode == "fused"
        machine.defer_shifts = self.fuse_exec and shifts_in_place()
        self._liveness: _Liveness | None = None
        self._frames: list[list] = []  # [ops, index, kind, last trip]
        self._pending: list[tuple[HostOp, tuple]] = []
        self._pending_reads: set[str] = set()
        self._pending_writes: set[str] = set()
        self._call_infos: dict[int, tuple] = {}
        self._binding_cache: dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def run(self, program: HostProgram) -> None:
        m = self.machine
        if m.defer_shifts:
            self._liveness = _Liveness.of(program)
        try:
            self._run_ops(program.ops)
        except StopExecution:
            pass
        self._frames.clear()
        self._flush()
        for name in list(m.deferred):
            m.materialize(name)

    def _run_ops(self, ops, kind: str = "seq", last: bool = True) -> None:
        frame = [ops, 0, kind, last]
        self._frames.append(frame)
        for i, op in enumerate(ops):
            frame[1] = i
            self._run_op(op)
        self._frames.pop()

    def _read_array(self, name: str):
        m = self.machine
        if name in m.deferred:
            m.materialize(name)
        return m.home(name).data

    def _settle(self, writes, kill: str | None = None) -> None:
        """Retire the deferrals that writing ``writes`` would break.

        A deferred temporary that is itself written (other than whole,
        by ``kill``) is materialized; one whose source is written is
        materialized if it may still be observed — later on this path
        or by the pending batch — and forgotten otherwise.
        """
        m = self.machine
        live = None
        for name, sh in list(m.deferred.items()):
            if name in writes:
                if name != kill:
                    m.materialize(name)
            elif sh.src_name in writes:
                if live is None:
                    live = (self._liveness.live(self._frames)
                            | self._pending_reads)
                if name in live:
                    m.materialize(name)
                else:
                    m.drop_shift(name)

    # ------------------------------------------------------------------

    def _run_op(self, op: HostOp) -> None:
        if not self.fuse_exec:
            return self._exec_op(op)
        if isinstance(op, NodeCall):
            return self._enqueue_call(op)
        if isinstance(op, Loop):
            return self._exec_op(op)  # bodies recurse through _run_op
        if isinstance(op, IfOp):
            self._barrier(_value_arrays(op.cond), frozenset())
            return self._exec_op(op)
        if isinstance(op, WhileOp):
            arrays = _value_arrays(op.cond)
            if not arrays:
                return self._exec_op(op)
            # An array-reading condition must observe the pending batch
            # before every evaluation, so run the loop here.
            m = self.machine
            while True:
                self._barrier(arrays, frozenset())
                if not bool(self.evaluator.eval_scalar(op.cond)):
                    break
                m.charge_host(m.model.host_op)
                self._run_ops(op.body, "while")
            m.charge_host(m.model.host_op)
            return
        reads, writes = _op_effects(op)
        self._barrier(reads, writes)
        if self.machine.deferred and writes:
            self._settle(writes, _whole_target(op))
        return self._exec_op(op)

    def _barrier(self, reads: frozenset[str],
                 writes: frozenset[str]) -> None:
        """Flush the batch if the op's footprint intersects it."""
        if not self._pending:
            return
        if (reads & self._pending_writes
                or writes & self._pending_writes
                or writes & self._pending_reads):
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        if self.machine.deferred:
            self._settle(self._pending_writes)
        pending = self._pending
        self._pending = []
        self._pending_reads = set()
        self._pending_writes = set()
        if len(pending) == 1:
            self.machine.call_routine(*pending[0][1])
        else:
            site = tuple(id(op) for op, _ in pending)
            self.machine.call_fused([call for _, call in pending],
                                    site=site)

    def _call_info(self, op: NodeCall) -> tuple:
        """(plan, reads, writes, enqueue-time reads) for a call site."""
        info = self._call_infos.get(id(op))
        plan = get_plan(op.routine)
        if info is not None and info[0] is plan:
            return info
        regs = {param.name: param.reg for param in op.routine.params}
        read_pregs = set(getattr(plan, "read_pregs", plan.used_pregs))
        stored = set(plan.stored_pregs)
        reads: set[str] = set()
        writes: set[str] = set()
        prefetch: set[str] = set()
        for arg in op.args:
            if arg.kind == "subgrid":
                reg = regs.get(arg.name)
                if reg is None:
                    continue
                if reg.n in read_pregs:
                    reads.add(arg.array)
                if reg.n in stored:
                    writes.add(arg.array)
            elif arg.kind == "halo":
                # The halo snapshot is taken when the call is enqueued.
                reads.add(arg.array)
                prefetch.add(arg.array)
            elif arg.kind == "scalar" and arg.value is not None:
                prefetch |= _value_arrays(arg.value)
        info = (plan, frozenset(reads), frozenset(writes),
                frozenset(prefetch))
        self._call_infos[id(op)] = info
        return info

    def _enqueue_call(self, op: NodeCall) -> None:
        _plan, reads, writes, prefetch = self._call_info(op)
        if prefetch and (prefetch & self._pending_writes):
            self._flush()
        bindings = self._bindings(op)
        call = (op.routine, bindings, op.region_extents,
                op.real_elements, op.layout)
        self._pending.append((op, call))
        self._pending_reads |= reads
        self._pending_writes |= writes

    def _bindings(self, op: NodeCall) -> dict[str, object]:
        """Resolved argument bindings, with persistent subgrid views.

        Subgrid and coordinate views depend only on the array object,
        so they are cached per call site and revalidated by identity;
        halo snapshots and scalar values are taken fresh every call.
        """
        cached = self._binding_cache.get(id(op))
        if cached is not None:
            static, checks = cached
            for name, home, data in checks:
                if (self.machine.arrays.get(name) is not home
                        or home.data is not data):
                    cached = None
                    break
        if cached is None:
            static = {}
            checks = []
            seen: set[str] = set()
            for arg in op.args:
                if arg.kind == "subgrid":
                    static[arg.name] = self.machine.view(arg.array,
                                                         arg.region)
                    if arg.array not in seen:
                        seen.add(arg.array)
                        home = self.machine.home(arg.array)
                        checks.append((arg.array, home, home.data))
                elif arg.kind == "coord":
                    static[arg.name] = self.machine.coord_subgrid(
                        arg.extents, arg.axis, arg.region, arg.lo,
                        arg.step)
            self._binding_cache[id(op)] = (static, tuple(checks))
        else:
            static = cached[0]
        bindings: dict[str, object] = dict(static)
        for arg in op.args:
            if arg.kind == "halo":
                bindings[arg.name] = self.machine.halo_subgrid(
                    arg.array, arg.shift, arg.axis)
            elif arg.kind == "scalar":
                bindings[arg.name] = self.evaluator.eval_scalar(arg.value)
        return bindings

    # ------------------------------------------------------------------

    def _exec_op(self, op: HostOp) -> None:
        m = self.machine
        if isinstance(op, Alloc):
            # Pre-allocated inputs (Executable.run's overrides) survive.
            if op.name not in m.arrays:
                m.alloc(op.name, op.extents, np.dtype(op.dtype),
                        layout=op.layout)
        elif isinstance(op, ScalarInit):
            self.scalars[op.name] = op.value
            m.charge_host(m.model.host_op)
        elif isinstance(op, NodeCall):
            self._node_call(op)
        elif isinstance(op, CommMove):
            cmrt.execute_comm(m, self.evaluator, op.clause, op.kind)
        elif isinstance(op, ReduceMove):
            cmrt.execute_reduce(m, self.evaluator, op.clause, self.scalars)
        elif isinstance(op, ScalarMove):
            value = self.evaluator.eval_scalar(op.clause.src)
            assert isinstance(op.clause.tgt, nir.SVar)
            self.scalars[op.clause.tgt.name] = value
            m.charge_host(m.model.host_op)
        elif isinstance(op, ElementMove):
            self._element_move(op.clause)
        elif isinstance(op, Loop):
            m.charge_host(m.model.host_op)
            trips = range(op.lo, op.hi + (1 if op.step > 0 else -1),
                          op.step)
            for i in trips:
                self.scalars[op.var] = i
                m.charge_host(m.model.host_op)
                self._run_ops(op.body, "loop", i == trips[-1])
        elif isinstance(op, WhileOp):
            while bool(self.evaluator.eval_scalar(op.cond)):
                m.charge_host(m.model.host_op)
                self._run_ops(op.body, "while")
            m.charge_host(m.model.host_op)
        elif isinstance(op, IfOp):
            m.charge_host(m.model.host_op)
            if bool(self.evaluator.eval_scalar(op.cond)):
                self._run_ops(op.then)
            else:
                self._run_ops(op.els)
        elif isinstance(op, Print):
            items = [self.evaluator.eval_scalar(v) if not self._is_field(v)
                     else str(self.evaluator.eval(v)) for v in op.values]
            self.output.append(" ".join(str(x) for x in items))
            m.charge_host(m.model.host_op)
        elif isinstance(op, Stop):
            raise StopExecution()
        else:
            raise TypeError(f"unknown host op {type(op).__name__}")

    @staticmethod
    def _is_field(value: nir.Value) -> bool:
        return any(isinstance(n, (nir.AVar, nir.LocalUnder))
                   for n in nir.values.walk(value))

    # ------------------------------------------------------------------

    def _node_call(self, op: NodeCall) -> None:
        bindings: dict[str, object] = {}
        for arg in op.args:
            if arg.kind == "subgrid":
                bindings[arg.name] = self.machine.view(arg.array, arg.region)
            elif arg.kind == "coord":
                bindings[arg.name] = self.machine.coord_subgrid(
                    arg.extents, arg.axis, arg.region, arg.lo, arg.step)
            elif arg.kind == "halo":
                bindings[arg.name] = self.machine.halo_subgrid(
                    arg.array, arg.shift, arg.axis)
            elif arg.kind == "scalar":
                bindings[arg.name] = self.evaluator.eval_scalar(arg.value)
            else:
                raise TypeError(f"unknown arg kind {arg.kind}")
        self.machine.call_routine(op.routine, bindings, op.region_extents,
                                  op.real_elements, layout=op.layout)

    def _element_move(self, clause: nir.MoveClause) -> None:
        """Serial front-end array access: single elements or sections.

        The front end pays :attr:`host_element_op` cycles per element
        touched — this is the "serial code" the compilation model pushes
        programmers away from.
        """
        m = self.machine
        tgt = clause.tgt
        assert isinstance(tgt, nir.AVar) and isinstance(tgt.field,
                                                        nir.Subscript)
        data = m.home(tgt.name).data
        index: list = []
        for axis, sub in enumerate(tgt.field.indices):
            if isinstance(sub, nir.IndexRange):
                n = data.shape[axis]
                lo = (int(self.evaluator.eval_scalar(sub.lo))
                      if sub.lo is not None else 1)
                hi = (int(self.evaluator.eval_scalar(sub.hi))
                      if sub.hi is not None else n)
                st = (int(self.evaluator.eval_scalar(sub.stride))
                      if sub.stride is not None else 1)
                index.append(slice(lo - 1, hi, st))
            else:
                index.append(int(self.evaluator.eval_scalar(sub)) - 1)
        view = data[tuple(index)]
        elements = int(np.asarray(view).size) if hasattr(view, "size") else 1
        m.charge_host(m.model.host_element_op * max(1, elements))

        mask = self.evaluator.eval(clause.mask)
        value = self.evaluator.eval(clause.src)
        if np.ndim(view) == 0:
            if bool(np.all(mask)):
                data[tuple(index)] = np.asarray(value).reshape(()).item() \
                    if isinstance(value, np.ndarray) else value
            return
        val = np.broadcast_to(np.asarray(value), view.shape)
        if np.ndim(mask) == 0:
            if bool(mask):
                np.copyto(view, val, casting="unsafe")
        else:
            mask_arr = np.broadcast_to(np.asarray(mask, bool), view.shape)
            np.copyto(view, np.where(mask_arr, val, view), casting="unsafe")


def format_host_program(program: HostProgram, indent: int = 0) -> str:
    """Readable disassembly of a host program (for docs and debugging)."""
    lines: list[str] = [f"HOST PROGRAM {program.name}:"]
    _format_ops(program.ops, lines, 1)
    return "\n".join(lines)


def _format_ops(ops, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    for op in ops:
        if isinstance(op, Alloc):
            lines.append(f"{pad}alloc {op.name}{list(op.extents)} "
                         f": {op.dtype}")
        elif isinstance(op, ScalarInit):
            lines.append(f"{pad}scalar {op.name} = {op.value}")
        elif isinstance(op, NodeCall):
            args = ", ".join(a.name for a in op.args)
            lines.append(f"{pad}call_pe {op.routine.name}({args}) "
                         f"over {op.region_extents}")
        elif isinstance(op, CommMove):
            lines.append(f"{pad}cm_rt {op.kind}: {op.clause.tgt}")
        elif isinstance(op, ReduceMove):
            lines.append(f"{pad}cm_rt reduce: {op.clause.tgt}")
        elif isinstance(op, ScalarMove):
            lines.append(f"{pad}scalar_move {op.clause.tgt} <- "
                         f"{op.clause.src}")
        elif isinstance(op, ElementMove):
            lines.append(f"{pad}element_move {op.clause.tgt}")
        elif isinstance(op, Loop):
            lines.append(f"{pad}for {op.var} = {op.lo}, {op.hi}, {op.step}:")
            _format_ops(op.body, lines, depth + 1)
        elif isinstance(op, WhileOp):
            lines.append(f"{pad}while {op.cond}:")
            _format_ops(op.body, lines, depth + 1)
        elif isinstance(op, IfOp):
            lines.append(f"{pad}if {op.cond}:")
            _format_ops(op.then, lines, depth + 1)
            if op.els:
                lines.append(f"{pad}else:")
                _format_ops(op.els, lines, depth + 1)
        elif isinstance(op, Print):
            lines.append(f"{pad}print {', '.join(map(str, op.values))}")
        elif isinstance(op, Stop):
            lines.append(f"{pad}stop")
