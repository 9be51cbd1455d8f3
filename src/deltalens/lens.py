"""Delta lenses on finite categories.

A delta lens is a functor together with a lifting table: for every
object a of the domain and every morphism u out of f(a), a chosen
morphism phi(a, u) out of a that f maps back onto u.  The three lens
laws say the table projects correctly (L1), picks identities on
identities (L2), and is closed under composition (L3).

`lambda_presentation` repackages a lens as a bijective-on-objects
functor followed by a discrete opfibration, a category of elements
(`kernel.elements`); `lens_from_lambda` reads the lens back, checking
that what it is given is such a presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    InternalInvariantError,
    ValidationReport,
    commutes,
    compose_functors,
    elements,
    identity_functor,
    is_bijective_on_objects,
    same_cat,
    same_functor,
    tag,
    validate_functor,
)
from .factorization import CommutingSquare, opfibration_lifts


@dataclass(frozen=True)
class LiftingTable:
    """Chosen lifts keyed by (object, morphism out of its image)."""

    entries: dict[tuple[str, str], str]

    def lift(self, a: str, u: str) -> str:
        try:
            return self.entries[(a, u)]
        except KeyError:
            raise InputError(f"no lift recorded for ({a}, {u})") from None


@dataclass(frozen=True)
class DeltaLens:
    """A functor with a lifting table satisfying the three lens laws."""

    functor: FinFunctor
    lifts: LiftingTable

    def lift(self, a: str, u: str) -> str:
        return self.lifts.lift(a, u)

    def target(self, a: str, u: str) -> str:
        """The object p(a, u) the chosen lift lands on."""
        return self.functor.dom.tgt[self.lift(a, u)]


def lens_pairs(fun: FinFunctor):
    """All (a, u) the lifting table of a lens on fun must cover, sorted."""
    for a in fun.dom.objects:
        for u in fun.cod.out(fun.obj_map[a]):
            yield a, u


def identity_lens(c: FinCat) -> DeltaLens:
    fun = identity_functor(c)
    return DeltaLens(fun, LiftingTable({(a, u): u for a, u in lens_pairs(fun)}))


def validate_lens(l: DeltaLens) -> ValidationReport:
    """Check table totality, well-typedness, and the laws L1, L2, L3."""
    fun = l.functor
    A, B = fun.dom, fun.cod
    wanted, known = set(lens_pairs(fun)), set(A.morphisms)
    v = [("stray-lift", *pair) for pair in sorted(set(l.lifts.entries) - wanted)]
    for (a, u) in sorted(wanted):
        m = l.lifts.entries.get((a, u))
        if m is None:
            v.append(("missing-lift", a, u))
            continue
        if m not in known:
            v.append(("unknown-lift", a, u, m))
            continue
        if A.src[m] != a:
            v.append(("lift-src", a, u, m))
            continue
        if fun.mor_map[m] != u:
            v.append(("L1", a, u))
    if v:
        return ValidationReport.from_violations(v)
    for a in A.objects:
        fa = fun.obj_map[a]
        if l.lift(a, B.identity[fa]) != A.identity[a]:
            v.append(("L2", a))
    for (a, u) in sorted(wanted):
        p = A.tgt[l.lift(a, u)]
        after_u, after_lift = B.row(u), A.row(l.lift(a, u))
        for w in B.out(B.tgt[u]):
            lhs = l.lift(a, after_u[w])
            rhs = after_lift[l.lift(p, w)]
            if lhs != rhs:
                v.append(("L3", a, u, w))
    return ValidationReport.from_violations(v)


def lens_from_discrete_opfibration(fun: FinFunctor) -> DeltaLens:
    """The unique lens structure on a discrete opfibration."""
    lifts = opfibration_lifts(fun)
    if lifts is None:
        raise ContractError("functor is not a discrete opfibration")
    l = DeltaLens(fun, LiftingTable(lifts))
    if not validate_lens(l).ok:
        raise InternalInvariantError("opfibration lifting table fails the lens laws")
    return l


def validate_lens_morphism(sq: CommutingSquare, l1: DeltaLens, l2: DeltaLens) -> ValidationReport:
    """Check that the square's top leg h sends chosen lifts to chosen lifts.

    The square itself already commutes by construction; what can fail is
    h(phi1(a, u)) = phi2(h a, k u) at some table entry.
    """
    if not same_functor(sq.left, l1.functor) or not same_functor(sq.right, l2.functor):
        raise InputError("square legs do not match the lens functors")
    h, k = sq.top, sq.bottom
    v = [
        ("lift-preservation", a, u)
        for (a, u) in sorted(lens_pairs(l1.functor))
        if h.mor_map[l1.lift(a, u)] != l2.lift(h.obj_map[a], k.mor_map[u])
    ]
    return ValidationReport.from_violations(v)


def compose_lenses(l1: DeltaLens, l2: DeltaLens) -> DeltaLens:
    """Sequential composite: lift through the second table, then the first.
    Both tables must pass `validate_lens` (a `ContractError` otherwise),
    and then so does the composite."""
    f, g = l1.functor, l2.functor
    if not same_cat(f.cod, g.dom):
        raise InputError("lens boundaries do not match")
    for l in (l1, l2):
        report = validate_lens(l)
        if not report.ok:
            raise ContractError(f"lifting table fails the lens laws: {report.first}")
    fun = compose_functors(g, f)
    entries = {
        (a, u): l1.lift(a, l2.lift(f.obj_map[a], u)) for a, u in lens_pairs(fun)
    }
    return DeltaLens(fun, LiftingTable(entries))


@dataclass(frozen=True)
class LambdaPresentation:
    """A lens split into a bijective-on-objects functor `phi` from the
    category of chosen lifts, with `over` = functor after phi a discrete
    opfibration."""

    lam: FinCat
    phi: FinFunctor
    over: FinFunctor


def lambda_presentation(l: DeltaLens) -> LambdaPresentation:
    """The category with one morphism per table entry, projecting back: the
    category of elements of u moving a to p(a, u), an action when the lens
    laws hold.  A table that fails `validate_lens` is a `ContractError`."""
    report = validate_lens(l)
    if not report.ok:
        raise ContractError(f"lifting table fails the lens laws: {report.first}")
    fun = l.functor
    points = {a: fun.obj_map[a] for a in fun.dom.objects}
    over, _, mor_id = elements(fun.cod, points, l.target, lambda a: a, tag)
    lam = over.dom
    phi = FinFunctor(
        lam,
        fun.dom,
        {a: a for a in lam.objects},
        {m: l.lift(a, u) for a, row in mor_id.items() for u, m in row.items()},
    )
    return LambdaPresentation(lam, phi, over)


def lens_from_lambda(pres: LambdaPresentation, fun: FinFunctor) -> DeltaLens:
    """Rebuild the lifting table from a presentation of fun.

    Preconditions are re-checked and reported as contract errors since
    presentations may arrive from outside.
    """
    if not validate_functor(pres.phi).ok or not validate_functor(pres.over).ok:
        raise ContractError("presentation legs are not functors")
    if not is_bijective_on_objects(pres.phi):
        raise ContractError("presentation is not bijective on objects")
    lifts = opfibration_lifts(pres.over)
    if lifts is None:
        raise ContractError("presentation is not a discrete opfibration over the base")
    if not commutes(fun, pres.phi, pres.over):
        raise ContractError("presentation does not present this functor")
    inv_obj = {v: k for k, v in pres.phi.obj_map.items()}
    entries = {(a, u): pres.phi.mor_map[lifts[(inv_obj[a], u)]] for a, u in lens_pairs(fun)}
    return DeltaLens(fun, LiftingTable(entries))
