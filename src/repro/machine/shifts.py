"""Deferred CSHIFTs: a compiler temporary read as a shifted stream.

A whole-array ``tmp = CSHIFT(src, s, dim)`` is charged to the network
meter when it executes, exactly as the CM runtime always charges it,
but the host copy can wait: until something reads ``tmp``, its value is
fully described by the source buffer and one cyclic offset per axis.
The native mega-kernels read such a *shifted stream* in place — at
``src[(i + k) mod n]`` per axis — so the host never builds the rolled
array at all.  Every other reader (the evaluator, element moves, the
Python kernels, the end of the run) first *materializes* the temporary
with the one-pass copy below.  The CM still communicates; only the
host artifact goes away.
"""

from __future__ import annotations

import numpy as np


class Shifted:
    """A deferred CSHIFT target: ``dst`` is ``src`` rolled by ``offsets``.

    ``offsets[a]`` is the CSHIFT amount along axis ``a`` normalized into
    ``[0, extent)``: ``dst[i] == src[(i + offsets) mod shape]``.  A shift
    of a deferred temporary composes onto the same source, so ``src`` is
    never itself deferred.
    """

    __slots__ = ("name", "dst", "src_name", "src", "offsets")

    def __init__(self, name: str, dst: np.ndarray, src_name: str,
                 src: np.ndarray, offsets: tuple[int, ...]) -> None:
        self.name = name
        self.dst = dst
        self.src_name = src_name
        self.src = src
        self.offsets = offsets

    def shifted_by(self, name: str, dst: np.ndarray, shift: int,
                   axis: int) -> "Shifted":
        """The deferral of ``CSHIFT(self, shift, axis + 1)`` into ``dst``."""
        offsets = list(self.offsets)
        offsets[axis] = (offsets[axis] + shift) % dst.shape[axis]
        return Shifted(name, dst, self.src_name, self.src, tuple(offsets))


def shifted_into(out: np.ndarray, src: np.ndarray, r: int,
                 axis: int) -> None:
    """``np.roll(src, r, axis)`` written directly into ``out``."""
    if r == 0:
        np.copyto(out, src, casting="unsafe")
        return
    n = src.shape[axis]
    lo = [slice(None)] * src.ndim
    hi = [slice(None)] * src.ndim
    slo = [slice(None)] * src.ndim
    shi = [slice(None)] * src.ndim
    lo[axis] = slice(0, r)
    slo[axis] = slice(n - r, None)
    hi[axis] = slice(r, None)
    shi[axis] = slice(None, n - r)
    np.copyto(out[tuple(lo)], src[tuple(slo)], casting="unsafe")
    np.copyto(out[tuple(hi)], src[tuple(shi)], casting="unsafe")


def shifted_copy(pool, view: np.ndarray, src: np.ndarray,
                 shift: int, axis: int) -> None:
    """One-pass CSHIFT: the roll lands straight in the target view.

    The generic path materializes ``np.roll`` (an allocation and a full
    copy) and then copies again into the target.  A circular shift is
    just two block copies, so write them directly — via a pooled
    staging buffer only when source and target share memory.
    """
    r = (-int(shift)) % src.shape[axis]
    if np.shares_memory(view, src):
        tmp = pool.acquire(src.shape, src.dtype)
        shifted_into(tmp, src, r, axis)
        np.copyto(view, tmp, casting="unsafe")
        pool.release(tmp)
    else:
        shifted_into(view, src, r, axis)


def write_shifted(pool, sh: Shifted) -> None:
    """Write a deferred temporary's value into its own buffer."""
    axes = [(a, k) for a, k in enumerate(sh.offsets) if k]
    if not axes:
        np.copyto(sh.dst, sh.src, casting="unsafe")
        return
    (axis, k), rest = axes[0], axes[1:]
    shifted_copy(pool, sh.dst, sh.src, k, axis)
    for axis, k in rest:  # a composed shift: roll the result in place
        shifted_copy(pool, sh.dst, sh.dst, k, axis)
