"""Native code generation for fused mega-kernels.

The Python blocked kernel (:mod:`repro.machine.kernel`) executes a plan
as a sequence of whole-block numpy ufunc calls; every intermediate value
still makes a round trip through a block buffer.  For a *fused* plan —
several routines merged over one proven-safe slot table — the natural
compilation target is a single per-element loop: every intermediate
lives in a C local (a machine register), which is the literal form of
the register-resident forwarding the fusion layer models.

The emitter walks ``plan.groups`` exactly like the step engine: within
a group all reads evaluate before any store commits (dual-issue pairs
observe pre-instruction state), and register updates take effect when
the group retires.  Because every emitted operation is elementwise over
the common stream length, a per-element schedule is observationally
identical to the step engine's whole-array passes.

Bit-identity with numpy is preserved by construction, not hope: only
operations whose C semantics are IEEE-754-exact matches of the numpy
ufunc are emitted (+, -, *, /, negation, ``fabs``, ``sqrt``,
comparisons, and the two-instruction multiply-add sequence), the
compile runs with ``-ffp-contract=off`` and without ``-ffast-math`` so
no fused multiply-adds or reassociation can change rounding, and all
streams must be contiguous float64.  Anything outside that whitelist —
transcendentals (numpy's SIMD routines differ from libm), min/max (NaN
payload propagation), integer ops, allocating conversions — makes the
emitter decline, and the caller falls back to the Python blocked
kernel.

A kernel may also read some slots as *shifted streams* — deferred
CSHIFT temporaries (:mod:`repro.machine.shifts`) read in place from
their source buffer.  Those kernels loop over the temporaries' shape
as an N-d nest: the outer axes compute each shifted stream's source row
once per row, and the last axis is split into runs over which every
stream's source column advances without wrapping; each run calls the
plain element loop, so the inner loop has no modulo.  Shape and
offsets are runtime arguments, so one build serves every shift amount.

``REPRO_FUSED_CC=0`` disables native generation; it is also skipped
automatically when no C compiler is on PATH.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile

import numpy as np

from .plan import (
    _R_CONST,
    _R_MEM,
    _R_SREG,
    _R_VREG,
    _BranchStep,
    _ComputeStep,
    _LoadStep,
    _MoveStep,
    _StoreStep,
)

_CFLAGS = ["-O3", "-shared", "-fPIC", "-fno-math-errno",
           "-ffp-contract=off"]

#: op -> C infix operator (IEEE-exact matches of the numpy ufunc)
_BINOPS = {"faddv": "+", "fsubv": "-", "fmulv": "*", "fdivv": "/"}
_CMPOPS = {"fceqv": "==", "fcnev": "!=", "fcltv": "<",
           "fclev": "<=", "fcgtv": ">", "fcgev": ">="}
_FMAOPS = {"fmav": "+", "fmsv": "-"}


class _CBail(Exception):
    """The plan uses something outside the provable whitelist."""


def _compiler() -> str | None:
    if os.environ.get("REPRO_FUSED_CC") == "0":
        return None
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def native_available() -> bool:
    return _compiler() is not None


_SO_CACHE: dict[str, object] = {}
_WORKDIR: str | None = None


def _workdir() -> str:
    global _WORKDIR
    if _WORKDIR is None:
        _WORKDIR = tempfile.mkdtemp(prefix="repro-ckernel-")
    return _WORKDIR


def _literal(value) -> str:
    """An exact C literal for a plan-time constant."""
    if isinstance(value, (bool, np.bool_)):
        return "1.0" if value else "0.0"
    if isinstance(value, (int, np.integer)):
        iv = int(value)
        if abs(iv) > 2 ** 53:
            raise _CBail
        return f"{iv}.0"
    if isinstance(value, (float, np.floating)):
        fv = float(value)
        if fv != fv:
            return "NAN"
        if fv == float("inf"):
            return "INFINITY"
        if fv == float("-inf"):
            return "-INFINITY"
        return fv.hex()  # C99 hexfloat: exact round trip
    raise _CBail


class _CKernel:
    """Callable with the blocked-kernel interface over a native loop.

    A kernel with shifted streams takes a fourth argument: the shape,
    then each shifted slot's per-axis offsets, in slot order.
    """

    __slots__ = ("_fn", "_lib", "_nslots", "_sregs", "source", "native",
                 "shifted")

    def __init__(self, fn, lib, nslots, sregs, source, shifted) -> None:
        self._fn = fn
        self._lib = lib  # keeps the dlopen handle alive
        self._nslots = nslots
        self._sregs = sregs
        self.source = source
        self.native = True
        self.shifted = shifted

    def __call__(self, S, X, n, Z=None) -> None:
        ptrs = (ctypes.c_void_p * self._nslots)(
            *[a.ctypes.data for a in S])
        xs = (ctypes.c_double * max(1, len(self._sregs)))(
            *[float(X[k]) for k in self._sregs])
        if self.shifted:
            self._fn(ptrs, xs, n, (ctypes.c_long * len(Z))(*Z))
        else:
            self._fn(ptrs, xs, n)


class _CEmitter:
    def __init__(self, plan, spec, classes, n, S, shifted=None) -> None:
        self.plan = plan
        self.spec = spec
        self.n = n
        # (ndim, shifted slot ids) or None: see ``try_native``.
        self.ndim, self.shifted = shifted or (0, ())
        self.cid_of = dict(zip(plan.used_pregs, classes))
        for cid in set(classes):
            if S[cid].dtype != np.float64:
                raise _CBail
        self.lines: list[str] = []
        self.used_cids: set[int] = set()
        self.used_sregs: set[int] = set()
        self.ntemps = 0

    def _temp(self, ctype: str, expr: str) -> str:
        name = f"t{self.ntemps}"
        self.ntemps += 1
        self.lines.append(f"    const {ctype} {name} = {expr};")
        return name

    def _mem(self, preg: int, store: bool = False) -> str:
        cid = self.cid_of[preg]
        self.used_cids.add(cid)
        if store and cid in self.shifted:
            raise _CBail
        return f"s{cid}[i]"

    def _read(self, rd, vmap) -> tuple[str, str]:
        """(C expression, kind) for a reader at the current position."""
        tag = rd[0]
        if tag == _R_VREG:
            val = vmap.get(rd[1])
            if val is None:
                raise _CBail
            return val
        if tag == _R_SREG:
            self.used_sregs.add(rd[1])
            return f"x{rd[1]}", "f64"
        if tag == _R_CONST:
            return _literal(rd[1]), "f64"
        if tag == _R_MEM:
            # Memory reads snapshot per element at this step position.
            return self._temp("double", self._mem(rd[1])), "f64"
        raise _CBail

    def _shape_ok(self, token: int) -> np.dtype:
        got = self.spec.get(token)
        if got is None or got[0] != (self.n,):
            raise _CBail
        return np.dtype(got[1])

    def _compute(self, step, vmap) -> tuple[str, str]:
        op = step.op
        dtype = self._shape_ok(step.token)
        args = [self._read(rd, vmap) for rd in step.readers]
        if op in _BINOPS:
            if dtype != np.float64:
                raise _CBail
            (a, _), (b, _) = args
            return self._temp("double",
                              f"({a}) {_BINOPS[op]} ({b})"), "f64"
        if op in _CMPOPS:
            if dtype != np.dtype(bool):
                raise _CBail
            (a, _), (b, _) = args
            return self._temp("int", f"({a}) {_CMPOPS[op]} ({b})"), "bool"
        if op in _FMAOPS:
            if dtype != np.float64:
                raise _CBail
            self._shape_ok(step.aux)
            (a, _), (b, _), (c, _) = args
            tmp = self._temp("double", f"({a}) * ({b})")
            return self._temp("double",
                              f"{tmp} {_FMAOPS[op]} ({c})"), "f64"
        if op == "fselv":
            if dtype != np.float64:
                raise _CBail
            (m, mk), (t, _), (f, _) = args
            cond = m if mk == "bool" else f"({m}) != 0.0"
            return self._temp("double",
                              f"({cond}) ? ({t}) : ({f})"), "f64"
        if op == "fnegv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"-({args[0][0]})"), "f64"
        if op == "fabsv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"fabs({args[0][0]})"), "f64"
        if op == "fsqrtv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"sqrt({args[0][0]})"), "f64"
        raise _CBail

    def build(self):
        vmap: dict[int, tuple[str, str]] = {}
        for steps in self.plan.groups:
            pend: list[tuple[int, tuple[str, str]]] = []
            commits: list[str] = []
            for step in steps:
                if isinstance(step, (_LoadStep, _MoveStep)):
                    pend.append((step.dst, self._read(step.reader, vmap)))
                elif isinstance(step, _StoreStep):
                    expr, kind = self._read(step.reader, vmap)
                    if kind == "bool":
                        expr = f"(double)({expr})"
                    commits.append(
                        f"    {self._mem(step.preg, True)} = {expr};")
                elif isinstance(step, _ComputeStep):
                    pend.append((step.dst, self._compute(step, vmap)))
                elif not isinstance(step, _BranchStep):
                    raise _CBail
            self.lines.extend(commits)  # stores commit after the evals
            for dst, val in pend:
                vmap[dst] = val
        if not self.lines:
            raise _CBail
        return self._emit()

    def _emit(self):
        sregs = sorted(self.used_sregs)
        nslots = max(self.cid_of.values(), default=-1) + 1
        # The element loop over the slot pointers: the whole kernel when
        # nothing is shifted, else run once per segment of the nest.
        loop = (["(void **SP, const double *X, long n) {"]
                + [f"  double *s{cid} = (double *)SP[{cid}];"
                   for cid in sorted(self.used_cids)]
                + [f"  const double x{k} = X[{j}];"
                   for j, k in enumerate(sregs)]
                + ["  for (long i = 0; i < n; i++) {"] + self.lines
                + ["  }", "}"])
        if self.shifted:
            # The nest only moves pointers once per segment; building it
            # at -O1 keeps a shifted kernel's build time near a plain one.
            src = (["static __attribute__((noinline)) void loop" + loop[0]]
                   + loop[1:]
                   + ['__attribute__((optimize("O1")))',
                      "void kernel(void **SP, const double *X, long n, "
                      "const long *Z) {",
                      f"  void *P[{nslots}];"]
                   + self._nest() + ["}"])
        else:
            src = ["void kernel" + loop[0]] + loop[1:]
        return _load("\n".join(["#include <math.h>"] + src + [""]),
                     nslots, tuple(sregs), bool(self.shifted))

    def _nest(self) -> list[str]:
        """The loop nest over the shape ``Z[:ndim]`` for shifted reads.

        ``Z[ndim:]`` holds each shifted slot's offsets ``k`` in
        ``[0, extent)``, slot by slot.  The outer axes pick each
        stream's source row; the last axis runs in segments that end
        where the first stream's source column would wrap, and each
        segment runs ``loop`` over pointers ``P`` moved to its start.
        """
        d, last, ns = self.ndim, self.ndim - 1, len(self.shifted)
        n = f"d{last}"
        out = [f"  const long d{a} = Z[{a}];" for a in range(d)]
        out += [f"  const long *K = Z + {d};",
                f"  const int C[{ns}] = {{"
                + ", ".join(map(str, self.shifted)) + "};",
                f"  const double *R0[{ns}];",
                f"  for (int s = 0; s < {ns}; s++) "
                f"R0[s] = (const double *)SP[C[s]];",
                f"  long st{last} = 1;"]
        out += [f"  long st{a} = st{a + 1} * d{a + 1};"
                for a in range(last - 1, -1, -1)]
        out.append("  long row = 0;")
        pad = "  "
        for a in range(last):  # outer axes: one source row per stream
            out += [f"{pad}for (long i{a} = 0; i{a} < d{a}; i{a}++) {{",
                    f"{pad}  const double *R{a + 1}[{ns}];",
                    f"{pad}  for (int s = 0; s < {ns}; s++) {{",
                    f"{pad}    long r = i{a} + K[s * {d} + {a}];",
                    f"{pad}    R{a + 1}[s] = R{a}[s] + "
                    f"(r >= d{a} ? r - d{a} : r) * st{a};",
                    f"{pad}  }}"]
            pad += "  "
        out += [f"{pad}for (long j = 0; j < {n}; ) {{",
                f"{pad}  long e = {n};",
                f"{pad}  for (int s = 0; s < {ns}; s++) {{",
                f"{pad}    long c = j + K[s * {d} + {last}];",
                f"{pad}    if (c >= {n}) c -= {n};",
                f"{pad}    if (j + {n} - c < e) e = j + {n} - c;",
                f"{pad}    P[C[s]] = (double *)(R{last}[s] + c);",
                f"{pad}  }}"]
        out += [f"{pad}  P[{c}] = (double *)SP[{c}] + row + j;"
                for c in sorted(self.used_cids - set(self.shifted))]
        out += [f"{pad}  loop(P, X, e - j);", f"{pad}  j = e;",
                f"{pad}}}", f"{pad}row += {n};"]
        for a in range(last - 1, -1, -1):
            pad = pad[:-2]
            out.append(f"{pad}}}")
        return out


def _load(src: str, nslots: int, sregs: tuple, shifted: bool = False,
          extra_flags: tuple = ()) -> _CKernel:
    key = (src, extra_flags)
    cached = _SO_CACHE.get(key)
    if cached is None:
        cc = _compiler()
        if cc is None:
            raise _CBail
        tag = f"k{len(_SO_CACHE)}"
        cfile = os.path.join(_workdir(), f"{tag}.c")
        sofile = os.path.join(_workdir(), f"{tag}.so")
        with open(cfile, "w") as f:
            f.write(src)
        proc = subprocess.run(
            [cc, *_CFLAGS, *extra_flags, "-o", sofile, cfile, "-lm"],
            capture_output=True)
        if proc.returncode != 0:
            raise _CBail
        lib = ctypes.CDLL(sofile)
        fn = lib.kernel
        argtypes = [ctypes.POINTER(ctypes.c_void_p),
                    ctypes.POINTER(ctypes.c_double), ctypes.c_long]
        if shifted:
            argtypes.append(ctypes.POINTER(ctypes.c_long))
        fn.argtypes = argtypes
        fn.restype = None
        cached = _SO_CACHE[key] = (lib, fn)
    lib, fn = cached
    return _CKernel(fn, lib, nslots, sregs, src, shifted)


def retune(kern, extra_flags: tuple) -> object:
    """The same kernel recompiled with extra compiler flags.

    Flags must preserve per-element IEEE semantics (``-ffp-contract=off``
    stays in force, so e.g. ``-march=native`` only widens the vector
    unit without reassociating or contracting).  Returns the original
    kernel untouched when it is not native or the recompile fails.
    """
    if not getattr(kern, "native", False) or not extra_flags:
        return kern
    try:
        return _load(kern.source, kern._nslots, kern._sregs, kern.shifted,
                     tuple(extra_flags))
    except _CBail:
        return kern


def try_native(plan, spec, classes, n, S, shifted=None):
    """A compiled C kernel for the plan, or None to use the Python one.

    ``shifted`` is ``(ndim, slot ids)`` for a kernel that reads those
    slots as shifted streams over an ``ndim``-axis shape.
    """
    if not native_available():
        return None
    try:
        return _CEmitter(plan, spec, classes, n, S, shifted).build()
    except _CBail:
        return None
