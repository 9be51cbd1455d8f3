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
from .factorization import CommutingSquare, _square_by_construction, is_discrete_opfibration
from .lens import DeltaLens, LiftingTable, lens_pairs, validate_lens
from .semimonad import JrAlgebra, j_object, validate_jr_algebra
from .awfs import LCoalgebra, RAlgebra, e_object, validate_l_coalgebra, validate_r_algebra


def enumerate_commuting_squares(
    f: FinFunctor, g: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[CommutingSquare]:
    """All squares from f to g: pairs of a top and a bottom functor
    making the two composites agree, which the filter decides."""
    tops = enumerate_functors(f.dom, g.dom, guard)
    bottoms = enumerate_functors(f.cod, g.cod, guard)
    return [_square_by_construction(f, g, h, k) for h in tops for k in bottoms if commutes(g, h, k, f)]


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
    lenses = (DeltaLens(fun, LiftingTable(dict(zip(pairs, c)))) for c in itertools.product(*candidates))
    return [l for l in lenses if validate_lens(l).ok]


def enumerate_jr_algebras(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[JrAlgebra]:
    """All lawful structure maps off the coslice category of fun."""
    algs = (JrAlgebra(fun, p) for p in enumerate_functors(j_object(fun).j, fun.dom, guard))
    return [alg for alg in algs if validate_jr_algebra(alg).ok]


def enumerate_r_algebra_structures(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[RAlgebra]:
    """All lawful structure maps collapsing the glued category of fun."""
    algs = (RAlgebra(fun, p) for p in enumerate_functors(e_object(fun).e, fun.dom, guard))
    return [alg for alg in algs if validate_r_algebra(alg).ok]


def enumerate_l_coalgebras(
    fun: FinFunctor, guard: int = DEFAULT_GUARD
) -> list[LCoalgebra]:
    """All lawful structure maps splitting the codomain of fun into its
    glued category."""
    coalgs = (LCoalgebra(fun, q) for q in enumerate_functors(fun.cod, e_object(fun).e, guard))
    return [coalg for coalg in coalgs if validate_l_coalgebra(coalg).ok]


def discrete_opfibrations(
    dom: FinCat, cod: FinCat, guard: int = DEFAULT_GUARD
) -> list[FinFunctor]:
    return [f for f in enumerate_functors(dom, cod, guard) if is_discrete_opfibration(f)]
