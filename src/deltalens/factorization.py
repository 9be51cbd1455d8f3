"""The comprehensive factorisation system on finite categories.

Every functor factors as an initial functor followed by a discrete
opfibration.  `comprehensive_factorise` builds the middle category out
of connected components of comma categories, `orthogonal_lift` fills a
commuting square whose left leg is initial and whose right leg is a
discrete opfibration with its unique diagonal, and the two predicates
decide membership in the two classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    InternalInvariantError,
    comma_to_object,
    compose_functors,
    is_connected,
    memo_by_key,
    same_cat,
    same_functor,
    tag,
    validate_functor,
)


@memo_by_key
def is_discrete_opfibration(fun: FinFunctor) -> bool:
    """True when every morphism out of the image of an object has exactly
    one lift with that source."""
    for a in fun.dom.objects:
        fa = fun.obj_map[a]
        outgoing = fun.dom.out(a)
        for u in fun.cod.out(fa):
            if sum(1 for w in outgoing if fun.mor_map[w] == u) != 1:
                return False
    return True


@memo_by_key
def is_initial(fun: FinFunctor) -> bool:
    """True when every comma category fun/b is connected."""
    return all(is_connected(comma_to_object(fun, b)) for b in fun.cod.objects)


def is_isomorphism(fun: FinFunctor) -> bool:
    obj = list(fun.obj_map.values())
    mor = list(fun.mor_map.values())
    return (
        len(set(obj)) == len(obj) == len(fun.cod.objects)
        and len(set(mor)) == len(mor) == len(fun.cod.morphisms)
    )


@dataclass(frozen=True)
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
        if not same_functor(
            compose_functors(self.bottom, self.left),
            compose_functors(self.right, self.top),
        ):
            raise InputError("square does not commute")


@dataclass(frozen=True)
class Factorisation:
    """An (initial, discrete opfibration) factorisation m after e of a functor."""

    e: FinFunctor
    m: FinFunctor
    mid: FinCat


def comprehensive_factorise(fun: FinFunctor) -> Factorisation:
    """Factor fun through the category of connected components of its commas.

    Middle objects are pairs (b, component of fun/b), named by the
    lexicographically least comma object in the component.  Post
    composition transports components, which makes the second leg a
    discrete opfibration; the first leg lands each object in the
    component of its own identity.
    """
    A, B = fun.dom, fun.cod
    pair_of = {tag(a, u): (a, u) for a in A.objects for u in B.out(fun.obj_map[a])}
    comp_of: dict[str, dict[str, str]] = {}
    reps: dict[str, tuple[str, ...]] = {}
    for b in B.objects:
        comma = comma_to_object(fun, b)
        parent: dict[str, str] = {x: x for x in comma.objects}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in comma.morphisms:
            rx, ry = find(comma.src[m]), find(comma.tgt[m])
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        members: dict[str, list[str]] = {}
        for x in comma.objects:
            members.setdefault(find(x), []).append(x)
        rep_by_obj = {x: min(ms) for r, ms in members.items() for x in ms}
        comp_of[b] = rep_by_obj
        reps[b] = tuple(sorted(min(ms) for ms in members.values()))

    base_of = {tag(b, r): b for b in B.objects for r in reps[b]}
    objects = tuple(base_of)
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    identity: dict[str, str] = {}
    mor_parts: dict[str, tuple[str, str]] = {}

    def transport(v: str, rep: str) -> str:
        # image component of the component named rep under post-composition by v
        a, u = pair_of[rep]
        return comp_of[B.tgt[v]][tag(a, B.compose[(v, u)])]

    for v in B.morphisms:
        for rep in reps[B.src[v]]:
            m = tag(v, rep)
            src[m] = tag(B.src[v], rep)
            tgt[m] = tag(B.tgt[v], transport(v, rep))
            mor_parts[m] = (v, rep)
    for b in B.objects:
        for rep in reps[b]:
            identity[tag(b, rep)] = tag(B.identity[b], rep)
    compose: dict[tuple[str, str], str] = {}
    for m1, (v1, rep1) in mor_parts.items():
        rep_mid = transport(v1, rep1)
        for v2 in B.out(B.tgt[v1]):
            compose[(tag(v2, rep_mid), m1)] = tag(B.compose[(v2, v1)], rep1)
    mid = FinCat(objects, tuple(sorted(mor_parts)), src, tgt, identity, compose)

    e = FinFunctor(
        A,
        mid,
        {a: tag(fun.obj_map[a], comp_of[fun.obj_map[a]][tag(a, B.identity[fun.obj_map[a]])]) for a in A.objects},
        {
            w: tag(
                fun.mor_map[w],
                comp_of[fun.obj_map[A.src[w]]][
                    tag(A.src[w], B.identity[fun.obj_map[A.src[w]]])
                ],
            )
            for w in A.morphisms
        },
    )
    m = FinFunctor(
        mid,
        B,
        base_of,
        {mm: v for mm, (v, _) in mor_parts.items()},
    )
    _check(validate_functor(e).ok, "factorisation first leg is not a functor")
    _check(validate_functor(m).ok, "factorisation second leg is not a functor")
    _check(same_functor(compose_functors(m, e), fun), "factorisation does not recompose")
    _check(is_initial(e), "factorisation first leg is not initial")
    _check(is_discrete_opfibration(m), "factorisation second leg is not a discrete opfibration")
    return Factorisation(e=e, m=m, mid=mid)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise InternalInvariantError(message)


def orthogonal_lift(sq: CommutingSquare) -> FinFunctor:
    """The unique diagonal of a square with initial left leg and discrete
    opfibration right leg.

    Anchors each object of the left leg's codomain at the least comma
    object over it, follows the unique lifts on the right, then
    re-verifies both triangle equations and functoriality, failing loudly
    if anything is off.
    """
    if not is_initial(sq.left):
        raise ContractError("orthogonal_lift needs an initial left leg")
    if not is_discrete_opfibration(sq.right):
        raise ContractError("orthogonal_lift needs a discrete opfibration right leg")
    f, g, h, k = sq.left, sq.right, sq.top, sq.bottom
    B, C = f.cod, g.dom

    def unique_lift(x: str, u: str) -> str:
        lifts = [m for m in C.out(x) if g.mor_map[m] == u]
        if len(lifts) != 1:
            raise InternalInvariantError("lift not unique over a discrete opfibration")
        return lifts[0]

    d_obj: dict[str, str] = {}
    for b in B.objects:
        anchor = min(
            (tag(a, beta), a, beta)
            for a in f.dom.objects
            for beta in B.hom(f.obj_map[a], b)
        )
        _, a, beta = anchor
        d_obj[b] = C.tgt[unique_lift(h.obj_map[a], k.mor_map[beta])]
    d_mor = {v: unique_lift(d_obj[B.src[v]], k.mor_map[v]) for v in B.morphisms}
    d = FinFunctor(B, C, d_obj, d_mor)
    _check(validate_functor(d).ok, "orthogonal lift is not a functor")
    _check(same_functor(compose_functors(d, f), h), "orthogonal lift misses the top triangle")
    _check(same_functor(compose_functors(g, d), k), "orthogonal lift misses the bottom triangle")
    return d
