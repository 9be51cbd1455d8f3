"""The comprehensive factorisation system on finite categories.

Every functor factors as an initial functor followed by a discrete
opfibration.  Both classes are read off the pairs (a, u: fun a -> b),
and both predicates are plain table computations, not cached: on a built
leg each is decided once, where the facts of its construction are
checked (the `constructions` law family for J(f) and E(f),
`comprehensive_factorise` for its own legs).  `_roots` puts the pairs
into classes, one union-find for all b, each class over a single b: fun
is initial when there is exactly one class over each b.  `components`
names each class by its least pair, and `comprehensive_factorise` builds
its middle category from the named classes, as the category of elements
(`kernel.elements`) of their transport by post-composition.  `opfibration_lifts`
tabulates the unique lift of each pair: fun is a discrete opfibration
when every pair has one.  `orthogonal_lift` fills a commuting square
whose left leg is initial and whose right leg is a discrete opfibration
with its unique diagonal, reading the lifts of the right leg.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    InternalInvariantError,
    commutes,
    elements,
    same_cat,
    tag,
    validate_functor,
)


def _roots(fun: FinFunctor) -> dict[tuple[str, str], tuple[str, str]]:
    """Each pair (a, u: fun a -> b) mapped to the root of its class.

    One union-find: for w: a -> a2 and u2 out of fun a2, the pair
    (a, u2 . fun w) joins (a2, u2).  Both lie over the target of u2, so
    each class lies over one b, and the classes over b are the connected
    components of the comma category fun/b.
    """
    A, B = fun.dom, fun.cod
    parent = {(a, u): (a, u) for a in A.objects for u in B.out(fun.obj_map[a])}
    b_row = B.row

    def find(p: tuple[str, str]) -> tuple[str, str]:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for w in A.nonidentity:
        a, fw = A.src[w], fun.mor_map[w]
        for u2 in B.out(fun.obj_map[A.tgt[w]]):
            r1, r2 = find((a, b_row(fw)[u2])), find((A.tgt[w], u2))
            if r1 != r2:
                parent[r1] = r2
    return {p: find(p) for p in parent}


def components(fun: FinFunctor) -> dict[tuple[str, str], tuple[str, str]]:
    """Each pair (a, u: fun a -> b) mapped to the least pair of its class
    (`_roots`), ordered by tag."""
    roots = _roots(fun)
    ids = {p: tag(*p) for p in roots}
    least: dict[tuple[str, str], tuple[str, str]] = {}
    for p, r in roots.items():
        if r not in least or ids[p] < ids[least[r]]:
            least[r] = p
    return {p: least[r] for p, r in roots.items()}


def opfibration_lifts(fun: FinFunctor) -> dict[tuple[str, str], str] | None:
    """The unique lift w: a -> a2 of each pair (a, u: fun a -> b), keyed by
    the pair, or None when some pair has no lift or more than one.

    fun must be a functor, so every w out of a lifts a pair at a.
    """
    lifts: dict[tuple[str, str], str] = {}
    for a in fun.dom.objects:
        for w in fun.dom.out(a):
            pair = (a, fun.mor_map[w])
            if pair in lifts:
                return None
            lifts[pair] = w
    pairs = sum(len(fun.cod.out(fun.obj_map[a])) for a in fun.dom.objects)
    return lifts if len(lifts) == pairs else None


def is_discrete_opfibration(fun: FinFunctor) -> bool:
    """True when every morphism out of the image of an object has exactly
    one lift with that source."""
    return opfibration_lifts(fun) is not None


def is_initial(fun: FinFunctor) -> bool:
    """True when the pairs over each object of the codomain form one class,
    that is, when every comma category fun/b is connected.  Each class
    lies over one b, so this holds exactly when the classes lie over
    every b and there are as many of them as objects of the codomain."""
    classes = set(_roots(fun).values())
    over = {fun.cod.tgt[u] for _, u in classes}
    return len(classes) == len(over) == len(fun.cod.objects)


@dataclass(frozen=True, slots=True)
class CommutingSquare:
    """A commuting square of functors.

    top and bottom run left to right, left and right run top to bottom:
    bottom after left equals right after top.  Construction checks the
    boundaries and the equation, so a held value is always a real square.
    """

    left: FinFunctor
    right: FinFunctor
    top: FinFunctor
    bottom: FinFunctor

    def __post_init__(self):
        if not same_cat(self.top.dom, self.left.dom):
            raise InputError("square boundary mismatch: top.dom != left.dom")
        if not same_cat(self.top.cod, self.right.dom):
            raise InputError("square boundary mismatch: top.cod != right.dom")
        if not same_cat(self.bottom.dom, self.left.cod):
            raise InputError("square boundary mismatch: bottom.dom != left.cod")
        if not same_cat(self.bottom.cod, self.right.cod):
            raise InputError("square boundary mismatch: bottom.cod != right.cod")
        if not commutes(self.bottom, self.left, self.right, self.top):
            raise InputError("square does not commute")


def _square_by_construction(
    left: FinFunctor, right: FinFunctor, top: FinFunctor, bottom: FinFunctor
) -> CommutingSquare:
    """The square of four functors whose boundaries and equation its caller
    has just decided, or argues, made without deciding them again: a
    structure check or a filter that runs `commutes` on these legs, or the
    docstring of the construction that built one leg.  Every other square,
    and every square from outside the package, is a checked `CommutingSquare`."""
    sq = object.__new__(CommutingSquare)
    for name, leg in (("left", left), ("right", right), ("top", top), ("bottom", bottom)):
        object.__setattr__(sq, name, leg)  # as __init__ does, into the square's four slots
    return sq


@dataclass(frozen=True)
class Factorisation:
    """An (initial, discrete opfibration) factorisation m after e through `mid`, m's domain."""

    e: FinFunctor
    m: FinFunctor

    @property
    def mid(self) -> FinCat:
        return self.m.dom


def comprehensive_factorise(fun: FinFunctor) -> Factorisation:
    """Factor fun through the category of classes of pairs (a, u: fun a -> b).

    Middle objects are pairs (b, class over b), named by the least pair
    of the class (`components`).  Post composition transports classes, and
    the second leg, the projection of its category of elements, is a
    discrete opfibration; the first leg lands each object in the class of
    its own identity.
    """
    A, B = fun.dom, fun.cod
    rep_of = components(fun)
    rep_id = {p: tag(*p) for p, rep in rep_of.items() if p == rep}
    over = {rep: B.tgt[rep[1]] for rep in rep_id}
    b_row = B.row
    transport = lambda rep, v: rep_of[(rep[0], b_row(rep[1])[v])]  # the class of rep under v
    name = lambda rep: tag(over[rep], rep_id[rep])
    m, obj_id, mor_id = elements(B, over, transport, name, lambda rep, v: tag(v, rep_id[rep]))

    def rep_at(a: str) -> tuple[str, str]:
        return rep_of[(a, B.identity[fun.obj_map[a]])]

    e = FinFunctor(
        A,
        m.dom,
        {a: obj_id[rep_at(a)] for a in A.objects},
        {w: mor_id[rep_at(A.src[w])][fun.mor_map[w]] for w in A.morphisms},
    )
    _check(validate_functor(e).ok, "factorisation first leg is not a functor")
    _check(validate_functor(m).ok, "factorisation second leg is not a functor")
    _check(commutes(m, e, fun), "factorisation does not recompose")
    _check(is_initial(e), "factorisation first leg is not initial")
    _check(is_discrete_opfibration(m), "factorisation second leg is not a discrete opfibration")
    return Factorisation(e=e, m=m)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InternalInvariantError(message)


def orthogonal_lift(sq: CommutingSquare) -> FinFunctor:
    """The unique diagonal of a square with initial left leg and discrete
    opfibration right leg.

    Anchors each object b of the left leg's codomain at any pair over it:
    all pairs over b are in one class, and joined pairs lift to the same
    object.  Follows the unique lifts on the right, then re-verifies both
    triangle equations and functoriality, failing loudly if anything is
    off.
    """
    if not is_initial(sq.left):
        raise ContractError("orthogonal_lift needs an initial left leg")
    lifts = opfibration_lifts(sq.right)
    if lifts is None:
        raise ContractError("orthogonal_lift needs a discrete opfibration right leg")
    f, g, h, k = sq.left, sq.right, sq.top, sq.bottom
    B, C = f.cod, g.dom
    d_obj = {
        B.tgt[beta]: C.tgt[lifts[(h.obj_map[a], k.mor_map[beta])]]
        for a in f.dom.objects
        for beta in B.out(f.obj_map[a])
    }
    d_mor = {v: lifts[(d_obj[B.src[v]], k.mor_map[v])] for v in B.morphisms}
    d = FinFunctor(B, C, d_obj, d_mor)
    _check(validate_functor(d).ok, "orthogonal lift is not a functor")
    _check(commutes(d, f, h), "orthogonal lift misses the top triangle")
    _check(commutes(g, d, k), "orthogonal lift misses the bottom triangle")
    return d
