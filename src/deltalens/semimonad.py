"""The coslice construction on a functor and its semi-monad structure.

For a functor f the category Jf collects pairs (a, u) of a domain
object with a morphism out of its image; morphisms only extend u by
postcomposition, keeping a fixed: Jf is the category of elements
(`kernel.elements`) of that action.  The construction packages three
things: Jf itself, the functor `s` placing each domain object at its
identity, and the projection `t` onto the codomain, a discrete
opfibration.  Together they factor f restricted to the discrete domain.

The multiplication `nu` collapses a pair of stacked extensions into
one, and algebras for the induced structure on functors are exactly
delta lenses, realised here by `jr_from_lens` and `lens_from_jr`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    ValidationReport,
    commutes,
    counit_inclusion,
    discrete,
    elements,
    identity_functor,
    memo_by_key,
    same_cat,
    same_functor,
    tag,
    validate_functor,
)
from .factorization import CommutingSquare, _square_by_construction
from .lens import DeltaLens, LiftingTable, lens_pairs, validate_lens


@dataclass(frozen=True)
class JPresentation:
    """The coslice category of a functor with its two structure legs.

    s       discrete domain -> j, each object at its identity
    t       j -> codomain, projecting u onto its target
    obj_id  (a, u) -> object id, `tag(a, u)`
    mor_id  (a, u) -> {v: id of the arrow (a, u) -> (a, v.u)}, `tag(a, u, v)`
    j       read-only, t's domain: the category of pairs (a, u out of the image
            of a), of elements of the action v.(a, u) = (a, v.u) (`kernel.elements`)
    """

    s: FinFunctor
    t: FinFunctor
    obj_id: dict[tuple[str, str], str]
    mor_id: dict[tuple[str, str], dict[str, str]]

    @property
    def j(self) -> FinCat:
        return self.t.dom


@memo_by_key(key="coslice_key")
def j_object(f: FinFunctor) -> JPresentation:
    """Build (and cache) the coslice presentation of f, unchecked: Jf is the
    category of elements of an action (`kernel.elements`), s is a functor,
    initial as the one morphism into (a, u) from a placed object is u out of
    (a, 1), and t . s = f . counit as t sends (a, 1) to f a.  The
    `constructions` law family checks this.

    It reads f only through the domain's objects and identity ids, the
    object map and the codomain, and is cached on that (`coslice_key`), so
    functors that differ only in their morphism maps share one presentation.
    Among them are Rf and the coslice projection t of f: E(f) has J(f)'s
    objects and identities, and Rf agrees with t on objects, so J(Rf) is
    J(t)."""
    A, B = f.dom, f.cod
    over = {(a, u): B.tgt[u] for a in A.objects for u in B.out(f.obj_map[a])}
    b_row = B.row
    extend = lambda p, v: (p[0], b_row(p[1])[v])
    t, obj_id, mor_id = elements(B, over, extend, lambda p: tag(*p), lambda p, v: tag(*p, v))
    j = t.dom
    s_obj = {a: obj_id[(a, B.identity[f.obj_map[a]])] for a in A.objects}
    s = FinFunctor(discrete(A), j, s_obj, {A.identity[a]: j.identity[s_obj[a]] for a in A.objects})
    return JPresentation(s, t, obj_id, mor_id)


def j_square(sq: CommutingSquare) -> FinFunctor:
    """Apply the coslice construction to a commuting square from f to g:
    (a, u) goes to (top a, bottom u) and the arrow v at (a, u) to bottom v,
    read off J(g) by lookup and not checked.

    Requires g . top = bottom . f, which the square checks, and bottom to
    be a functor.  (top a, bottom u) is an object of J(g), as bottom u
    leaves bottom(f a) = g(top a), and bottom v leaves bottom(tgt u) =
    tgt(bottom u).  The image is a functor, as bottom preserves sources,
    targets, identities and composites, and in J the composite of v2 after
    v1 at (a, u) is v2.v1.  It lies over bottom, as t reads off the last
    component, and it keeps identity placement, as (a, 1) goes to
    (top a, 1)."""
    jf, jg = j_object(sq.left), j_object(sq.right)
    top, bottom = sq.top.obj_map, sq.bottom.mor_map
    obj_map, mor_map = {}, {}
    for p, row in jf.mor_id.items():
        pair = (top[p[0]], bottom[p[1]])
        obj_map[jf.obj_id[p]] = jg.obj_id[pair]
        image = jg.mor_id[pair]
        for v, m in row.items():
            mor_map[m] = image[bottom[v]]
    return FinFunctor(jf.j, jg.j, obj_map, mor_map)


def _collapse(upper: JPresentation, base: JPresentation) -> tuple[dict, dict]:
    """Object and morphism maps of a multiplication: a stacked extension
    (x, u2) of x = (a, u1) in `base` goes to the extension (a, u2.u1)."""
    b_row = base.t.cod.row
    pair_of = {x: p for p, x in base.obj_id.items()}
    obj_map, mor_map = {}, {}
    for p, row in upper.mor_id.items():
        a, u1 = pair_of[p[0]]
        onto = (a, b_row(u1)[p[1]])
        obj_map[upper.obj_id[p]] = base.obj_id[onto]
        image = base.mor_id[onto]
        for v, m2 in row.items():
            mor_map[m2] = image[v]
    return obj_map, mor_map


@memo_by_key(key="coslice_key")
def nu(f: FinFunctor) -> FinFunctor:
    """Collapse stacked extensions: the multiplication J(t of f) -> Jf over
    the base, unchecked: the arrow v at (x, u2), x = (a, u1), goes to the
    arrow v at (a, u2.u1), so, as in `j_square`, sources, targets,
    identities and composites are kept (`nu-functor` decides it).  It reads
    only J(f) and J(t of f), so it is cached on `j_object`'s key."""
    base = j_object(f)
    upper = j_object(base.t)
    return FinFunctor(upper.j, base.j, *_collapse(upper, base))


_Checks = Sequence[tuple[str, Callable[[], bool | ValidationReport]]]


def _layered_report(
    structure: _Checks,
    laws: _Checks,
    *,
    f: FinFunctor | None = None,
    squares: tuple[CommutingSquare, ...] = (),
    naturality: tuple[str, Callable[[CommutingSquare], bool]] | None = None,
) -> ValidationReport:
    """The report of the layered check shared by the (co)monad, the
    distributive law and the algebra validators.

    structure   (name, holds) pairs run in order: the first that fails is
                the whole report, and the laws and squares are skipped; a
                holds that returns a report adds its first violation
    laws        (name, holds) pairs: every one that fails is reported
    squares     naturality squares out of f, each reported as (name, i)
                when `naturality`'s predicate fails on it

    A square that does not start at f is an `InputError`.
    """
    if any(not same_functor(sq.left, f) for sq in squares):
        raise InputError("naturality square does not start at the functor under test")
    for name, holds in structure:
        out = holds()
        if isinstance(out, ValidationReport):
            if not out.ok:
                return ValidationReport.from_violations([(name, *out.violations[0])])
        elif not out:
            return ValidationReport.from_violations([(name,)])
    v: list[tuple] = [(name,) for name, holds in laws if not holds()]
    if squares:
        name, natural = naturality
        v.extend((name, i) for i, sq in enumerate(squares) if not natural(sq))
    return ValidationReport.from_violations(v)


def validate_semimonad(
    f: FinFunctor, *, squares: tuple[CommutingSquare, ...] = ()
) -> ValidationReport:
    """Check the semi-monad laws of `nu` at f, and its naturality on
    squares out of f into other functors.  `nu-functor` decides that
    `nu`, built unchecked, is a functor, and `nu-over-base` makes the
    associativity law's square commute.  Each naturality square's outer
    square commutes as `j_square`'s image lies over the bottom leg."""
    base = j_object(f)
    upper = j_object(base.t)
    n = nu(f)
    collapse = lambda: j_square(_square_by_construction(upper.t, base.t, n, identity_functor(f.cod)))

    def natural(sq: CommutingSquare) -> bool:
        inner = j_square(sq)
        outer = j_square(_square_by_construction(base.t, j_object(sq.right).t, inner, sq.bottom))
        return commutes(inner, n, nu(sq.right), outer)

    return _layered_report(
        (("nu-functor", lambda: validate_functor(n)),
         ("nu-over-base", lambda: commutes(base.t, n, upper.t))),
        (
            ("nu-unit", lambda: commutes(n, upper.s, counit_inclusion(base.j))),
            ("nu-associativity", lambda: commutes(n, nu(base.t), n, collapse())),
        ),
        f=f,
        squares=squares,
        naturality=("nu-naturality", natural),
    )


@dataclass(frozen=True)
class JrAlgebra:
    """A functor with a structure map off its coslice category."""

    functor: FinFunctor
    structure: FinFunctor

    def __post_init__(self):
        pres = j_object(self.functor)
        if not same_cat(self.structure.dom, pres.j):
            raise InputError("structure map does not start at the coslice category")
        if not same_cat(self.structure.cod, self.functor.dom):
            raise InputError("structure map does not land in the functor domain")


def validate_jr_algebra(alg: JrAlgebra) -> ValidationReport:
    """Check the algebra laws: strictness over the base, unit, and
    compatibility with the multiplication, whose square commutes once
    strictness holds."""
    f, p = alg.functor, alg.structure
    pres = j_object(f)
    collapse = lambda: j_square(_square_by_construction(pres.t, f, p, identity_functor(f.cod)))
    return _layered_report(
        (
            ("structure-functor", lambda: validate_functor(p).ok),
            ("strictness", lambda: commutes(f, p, pres.t)),
        ),
        (
            ("unit", lambda: commutes(p, pres.s, counit_inclusion(f.dom))),
            ("multiplication", lambda: commutes(p, collapse(), p, nu(f))),
        ),
    )


def validate_jr_morphism(sq: CommutingSquare, alg1: JrAlgebra, alg2: JrAlgebra) -> ValidationReport:
    """Check that a square of functors commutes with the structure maps."""
    if not same_functor(sq.left, alg1.functor) or not same_functor(sq.right, alg2.functor):
        raise InputError("square legs do not match the algebra functors")
    ok = commutes(alg2.structure, j_square(sq), sq.top, alg1.structure)
    return ValidationReport.from_violations([] if ok else [("structure-compat",)])


def jr_from_lens(l: DeltaLens) -> JrAlgebra:
    """Read a structure map off a lens: objects go to lift targets,
    extension steps to the lift chosen at the previous target."""
    if not validate_lens(l).ok:
        raise ContractError("lifting table fails the lens laws")
    f = l.functor
    pres = j_object(f)
    obj_map = {x: l.target(*p) for p, x in pres.obj_id.items()}
    mor_map = {
        m: l.lift(l.target(*p), v) for p, row in pres.mor_id.items() for v, m in row.items()
    }
    return JrAlgebra(f, FinFunctor(pres.j, f.dom, obj_map, mor_map))


def lens_from_jr(alg: JrAlgebra) -> DeltaLens:
    """Read a lifting table off an algebra: the lift of (a, u) is the
    structure map's image of the extension of (a, identity) by u."""
    if not validate_jr_algebra(alg).ok:
        raise ContractError("structure map fails the coslice algebra laws")
    f, p = alg.functor, alg.structure
    B = f.cod
    mor_id = j_object(f).mor_id
    entries = {
        (a, u): p.mor_map[mor_id[(a, B.identity[f.obj_map[a]])][u]]
        for a, u in lens_pairs(f)
    }
    return DeltaLens(f, LiftingTable(entries))
