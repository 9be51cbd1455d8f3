"""Exhaustive searches over functors, squares, lenses, and structure
maps, all behind explicit size guards.

Each enumerator is deterministic: results come out in lexicographic
order of their defining tables, so repeated runs and cross-process
comparisons see the same sequence.
"""

from __future__ import annotations

import itertools

from .kernel import (
    DEFAULT_GUARD,
    FinCat,
    FinFunctor,
    GuardExceededError,
    commutes,
    enumerate_functors,
)
from .factorization import CommutingSquare, is_discrete_opfibration
from .lens import DeltaLens, LiftingTable, lens_pairs, validate_lens
from .semimonad import JrAlgebra, j_object, validate_jr_algebra
from .awfs import LCoalgebra, RAlgebra, e_object, validate_l_coalgebra, validate_r_algebra


def enumerate_commuting_squares(
    f: FinFunctor, g: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[CommutingSquare]:
    """All squares from f to g: pairs of a top and a bottom functor
    making the two composites agree."""
    tops = enumerate_functors(f.dom, g.dom, guard)
    bottoms = enumerate_functors(f.cod, g.cod, guard)
    out = []
    for h in tops:
        for k in bottoms:
            if commutes(g, h, k, f):
                out.append(CommutingSquare(f, g, h, k))
    return out


def enumerate_lens_structures(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[DeltaLens]:
    """All lifting tables on a functor satisfying the lens laws.

    The guard bounds the product over table slots of the number of
    candidate lifts, the size of the raw search space.
    """
    pairs = sorted(lens_pairs(fun))
    candidates: list[list[str]] = []
    space = 1
    for a, u in pairs:
        cands = [w for w in fun.dom.out(a) if fun.mor_map[w] == u]
        space *= len(cands)
        if space > guard:
            raise GuardExceededError(
                f"lens search space exceeds the guard ({space} > {guard})"
            )
        candidates.append(cands)
    out = []
    for choice in itertools.product(*candidates):
        l = DeltaLens(fun, LiftingTable(dict(zip(pairs, choice))))
        if validate_lens(l).ok:
            out.append(l)
    return out


def enumerate_jr_algebras(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[JrAlgebra]:
    """All lawful structure maps off the coslice category of fun."""
    pres = j_object(fun)
    out = []
    for p in enumerate_functors(pres.j, fun.dom, guard):
        alg = JrAlgebra(fun, p)
        if validate_jr_algebra(alg).ok:
            out.append(alg)
    return out


def enumerate_r_algebra_structures(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[RAlgebra]:
    """All lawful structure maps collapsing the glued category of fun."""
    pres = e_object(fun)
    out = []
    for p in enumerate_functors(pres.e, fun.dom, guard):
        alg = RAlgebra(fun, p)
        if validate_r_algebra(alg).ok:
            out.append(alg)
    return out


def enumerate_l_coalgebras(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[LCoalgebra]:
    """All lawful structure maps splitting the codomain of fun into its
    glued category."""
    pres = e_object(fun)
    out = []
    for q in enumerate_functors(fun.cod, pres.e, guard):
        coalg = LCoalgebra(fun, q)
        if validate_l_coalgebra(coalg).ok:
            out.append(coalg)
    return out


def discrete_opfibrations(
    dom: FinCat, cod: FinCat, guard: int = DEFAULT_GUARD
) -> list[FinFunctor]:
    return [f for f in enumerate_functors(dom, cod, guard) if is_discrete_opfibration(f)]
