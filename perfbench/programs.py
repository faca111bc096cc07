"""The compile-edit workload's inputs: program families and edit chains.

Everything here is generated from a seed and handed to the compiler as
source text; nothing reaches into its internals.

A *family* is one program of ``examples/*.f90`` or the
:mod:`repro.programs` generators at a small grid, plus what the edit
chain needs to change it: the array a tail statement updates (and
whether it holds integers) and a literal of the body to perturb.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Family:
    name: str
    source: str
    array: str          # the array a tail statement updates
    integer: bool       # whether that array holds integers
    literal: str        # a body literal the constant edit perturbs
    perturbed: str      # its replacement, with ``{k}`` for the draw


def _example(root: str, name: str) -> str:
    with open(os.path.join(root, "examples", name)) as f:
        return f.read()


def families(root: str) -> list[Family]:
    """Every family of the compile pool, at fixed small grids.

    The grids are fixed so that the seed changes only the order and
    the edits, never the programs compiled cold: cold-compile figures
    then compare across seeds.  SWE enters once (``examples/swe.f90``):
    its compiles take three times the others', and with a second SWE
    family the slowest tenth of the pool's compiles would be exactly
    the SWE ones, putting ``op_s_p90`` on the edge between them.
    """
    from repro.programs import kernels

    return [
        Family("ex-heat", _example(root, "heat.f90"), "t", False,
               "kappa = 0.1d0", "kappa = 0.1{k}d0"),
        Family("ex-life", _example(root, "life.f90"), "grid", True,
               "j*5", "j*{k}"),
        Family("ex-redblack", _example(root, "redblack.f90"), "u", False,
               "0.25d0", "0.25{k}d0"),
        Family("ex-swe", _example(root, "swe.f90"), "p", False,
               "dt = 90.0d0", "dt = 90.{k}d0"),
        Family("heat", kernels.heat_source(16, 4), "t", False,
               "kappa = 0.1d0", "kappa = 0.1{k}d0"),
        Family("life", kernels.life_source(16, 2), "grid", True,
               "j*5", "j*{k}"),
        Family("deck", kernels.deck_source(16, 8), "L", True,
               "L(I) = 6", "L(I) = {k}"),
        Family("where", kernels.where_source(16), "A", True,
               "nval = 7", "nval = {k}"),
        Family("blocking", kernels.blocking_source(16), "B", True,
               "B(i,j) + j", "B(i,j) + j + {k}"),
        Family("forall", kernels.forall_source(16), "A", True,
               "i+j", "i+j+{k}"),
        Family("reduction", kernels.reduction_source(16), "a", False,
               "a > 0.5d0", "a > 0.5{k}d0"),
        Family("saxpy", kernels.saxpy_source(64), "y", False,
               "a = 2.5d0", "a = 2.5{k}d0"),
        Family("redblack", kernels.redblack_source(16, 2), "u", False,
               "0.25d0", "0.25{k}d0"),
        Family("matmul", kernels.matmul_source(8), "c", False,
               "0.5d0", "0.5{k}d0"),
        Family("cg", kernels.cg_source(16, 2), "x", False,
               "0.3d0", "0.3{k}d0"),
    ]


_MAIN_END = re.compile(r"^[ \t]*end([ \t]+program\b[^\n]*)?[ \t]*$",
                       re.I | re.M)


def _before_end(source: str, stmt: str) -> str:
    """``stmt`` inserted as the main program's last statement."""
    m = _MAIN_END.search(source)
    return source[:m.start()] + stmt + "\n" + source[m.start():]


#: Edits that must compile (and match the reference when run).
VALID_EDITS = ("identical", "comment", "tail", "constant")
#: Edits that must end in a typed repro diagnostic.
INVALID_EDITS = ("dangling-operator", "undeclared", "rank")


def edit(family: Family, source: str, kind: str, k: int) -> str:
    """``source`` changed by one edit of ``kind``; ``k`` is drawn."""
    a = family.array
    if kind == "identical":
        return source
    if kind == "comment":
        return f"! edit {k}\n{source}"
    if kind == "tail":
        value = str(k) if family.integer else f"{k}.5d0"
        return _before_end(source, f"{a} = {a} + {value}")
    if kind == "constant":
        new = family.perturbed.format(k=k)
        assert family.literal in source, family.name
        return source.replace(family.literal, new, 1)
    if kind == "dangling-operator":
        return _before_end(source, f"{a} = {a} +")
    if kind == "undeclared":
        return _before_end(source, f"{a} = {a} + undeclared{k}")
    if kind == "rank":
        return _before_end(source, f"{a} = {a}(1, 1, 1, {k})")
    raise ValueError(kind)


@dataclass(frozen=True)
class Chain:
    """One family's cold compile followed by its seeded edit chain."""

    family: Family
    edits: tuple[tuple[str, str], ...]  # (kind, source), applied in order


def draw_chains(fams: list[Family], seed: int) -> list[Chain]:
    """The seeded draw: family order, edit order and edit constants.

    Valid edits apply cumulatively in a seeded order; the chain ends
    with one seeded invalid edit on top of the last valid version.
    """
    rng = random.Random(seed)
    order = list(fams)
    rng.shuffle(order)
    chains = []
    for fam in order:
        kinds = list(VALID_EDITS)
        rng.shuffle(kinds)
        source = fam.source
        edits = []
        for kind in kinds:
            source = edit(fam, source, kind, rng.randint(2, 9))
            edits.append((kind, source))
        bad = rng.choice(INVALID_EDITS)
        edits.append((bad, edit(fam, source, bad, rng.randint(2, 9))))
        chains.append(Chain(fam, tuple(edits)))
    return chains
