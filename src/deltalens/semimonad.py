"""The coslice construction on a functor and its semi-monad structure.

For a functor f the category Jf collects pairs (a, u) of a domain
object with a morphism out of its image; morphisms only extend u by
postcomposition, keeping a fixed.  The construction packages three
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
    InternalInvariantError,
    ValidationReport,
    commutes,
    counit_inclusion,
    discrete,
    memo_by_key,
    same_cat,
    same_functor,
    tag,
    validate_category,
    validate_functor,
)
from .factorization import CommutingSquare, is_discrete_opfibration, is_initial
from .lens import DeltaLens, LiftingTable, lens_pairs, validate_lens


@dataclass(frozen=True)
class JPresentation:
    """The coslice category of a functor with its two structure legs.

    j          the category of pairs (a, u out of the image of a)
    s          discrete domain -> j, each object at its identity
    t          j -> codomain, projecting u onto its target
    obj_pairs  object id -> (a, u)
    mor_parts  morphism id -> (a, u, v), the arrow (a, u) -> (a, v.u)
    id_of      the inverse of both: (a, u) -> object id, (a, u, v) ->
               morphism id; each id is `tag` of its parts
    """

    j: FinCat
    s: FinFunctor
    t: FinFunctor
    obj_pairs: dict[str, tuple[str, str]]
    mor_parts: dict[str, tuple[str, str, str]]
    id_of: dict[tuple[str, ...], str]


@memo_by_key
def j_object(f: FinFunctor) -> JPresentation:
    """Build (and cache) the coslice presentation of f."""
    A, B = f.dom, f.cod
    id_of: dict[tuple[str, ...], str] = {}
    obj_pairs: dict[str, tuple[str, str]] = {}
    for a in A.objects:
        for u in B.out(f.obj_map[a]):
            x = id_of[(a, u)] = tag(a, u)
            obj_pairs[x] = (a, u)
    mor_parts: dict[str, tuple[str, str, str]] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    identity: dict[str, str] = {}
    for x, (a, u) in obj_pairs.items():
        b = B.tgt[u]
        for v in B.out(b):
            m = id_of[(a, u, v)] = tag(a, u, v)
            mor_parts[m] = (a, u, v)
            src[m] = x
            tgt[m] = id_of[(a, B.after[u][v])]
        identity[x] = id_of[(a, u, B.identity[b])]
    after: dict[str, dict[str, str]] = {}
    for m1, (a, u, v1) in mor_parts.items():
        mid, after_v1 = B.after[u][v1], B.after[v1]
        after[m1] = {id_of[(a, mid, v2)]: id_of[(a, u, after_v1[v2])] for v2 in B.out(B.tgt[v1])}
    j = FinCat(tuple(obj_pairs), tuple(mor_parts), src, tgt, identity, after)
    dA = discrete(A)
    s_obj = {a: id_of[(a, B.identity[f.obj_map[a]])] for a in A.objects}
    s = FinFunctor(dA, j, s_obj, {A.identity[a]: identity[s_obj[a]] for a in A.objects})
    t = FinFunctor(
        j,
        B,
        {x: B.tgt[u] for x, (a, u) in obj_pairs.items()},
        {m: v for m, (a, u, v) in mor_parts.items()},
    )
    pres = JPresentation(j, s, t, obj_pairs, mor_parts, id_of)
    _verify_j(pres, f)
    return pres


def _verify_j(pres: JPresentation, f: FinFunctor) -> None:
    validate_category(pres.j).require("coslice category tables are inconsistent")
    legs = validate_functor(pres.s).merged(validate_functor(pres.t))
    legs.require("coslice structure legs are not functors")
    if not is_initial(pres.s):
        raise InternalInvariantError("identity placement leg is not initial")
    if not is_discrete_opfibration(pres.t):
        raise InternalInvariantError("coslice projection is not a discrete opfibration")
    if not commutes(pres.t, pres.s, f, counit_inclusion(f.dom)):
        raise InternalInvariantError("coslice legs do not factor the functor")


def _raw_j_square(
    dom: JPresentation,
    cod: JPresentation,
    top_obj: dict[str, str],
    bottom_mor: dict[str, str],
) -> FinFunctor:
    """The induced map on coslices, from a top object map and a bottom
    morphism map; well-definedness is the caller's concern: an image
    that is not an identifier of `cod` maps to None."""
    id_of = cod.id_of.get
    obj_map = {
        x: id_of((top_obj[a], bottom_mor[u])) for x, (a, u) in dom.obj_pairs.items()
    }
    mor_map = {
        m: id_of((top_obj[a], bottom_mor[u], bottom_mor[v]))
        for m, (a, u, v) in dom.mor_parts.items()
    }
    return FinFunctor(dom.j, cod.j, obj_map, mor_map)


def j_square(sq: CommutingSquare) -> FinFunctor:
    """Apply the coslice construction to a commuting square of functors,
    checking every fact of the image (`awfs.e_square` relies on them)."""
    jf, jg = j_object(sq.left), j_object(sq.right)
    out = _raw_j_square(jf, jg, sq.top.obj_map, sq.bottom.mor_map)
    if not validate_functor(out).ok:
        raise InternalInvariantError("coslice image of a square is not a functor")
    if not commutes(jg.t, out, sq.bottom, jf.t):
        raise InternalInvariantError("coslice square does not commute over the base")
    # Both sides are functors out of the discrete category on A, and so
    # agree when they agree on objects.
    if any(
        out.obj_map[jf.s.obj_map[a]] != jg.s.obj_map[sq.top.obj_map[a]]
        for a in sq.left.dom.objects
    ):
        raise InternalInvariantError("coslice square does not respect identity placement")
    return out


def _collapse(upper: JPresentation, base: JPresentation) -> tuple[dict, dict]:
    """Object and morphism maps of a multiplication: a stacked extension
    (x, u2) of x = (a, u1) in `base` goes to the extension (a, u2.u1)."""
    B = base.t.cod
    obj_map: dict[str, str] = {}
    for x2, (x, u2) in upper.obj_pairs.items():
        a, u1 = base.obj_pairs[x]
        obj_map[x2] = base.id_of[(a, B.after[u1][u2])]
    mor_map: dict[str, str] = {}
    for m2, (x, u2, v) in upper.mor_parts.items():
        a, u1 = base.obj_pairs[x]
        mor_map[m2] = base.id_of[(a, B.after[u1][u2], v)]
    return obj_map, mor_map


@memo_by_key
def nu(f: FinFunctor) -> FinFunctor:
    """Collapse stacked extensions: the multiplication J(t of f) -> Jf,
    over the base by construction: (x, u2, v) goes to (a, u2.u1, v)."""
    base = j_object(f)
    upper = j_object(base.t)
    out = FinFunctor(upper.j, base.j, *_collapse(upper, base))
    validate_functor(out).require("multiplication is not a functor")
    return out


def _j_over_base(pres: JPresentation, top_obj: dict[str, str]) -> FinFunctor:
    """The coslice map J(pres.t) -> pres induced by an object map out of
    the domain of pres.t that keeps the base fixed."""
    base = {m: m for m in pres.t.cod.morphisms}
    return _raw_j_square(j_object(pres.t), pres, top_obj, base)


_Checks = Sequence[tuple[str, Callable[[], bool]]]


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
                the whole report, and the laws and squares are skipped
    laws        (name, holds) pairs: every one that fails is reported
    squares     naturality squares out of f, each reported as (name, i)
                when `naturality`'s predicate fails on it

    A square that does not start at f is an `InputError`.
    """
    if any(not same_functor(sq.left, f) for sq in squares):
        raise InputError("naturality square does not start at the functor under test")
    broken = next((name for name, holds in structure if not holds()), None)
    if broken:
        return ValidationReport.from_violations([(broken,)])
    v: list[tuple] = [(name,) for name, holds in laws if not holds()]
    if squares:
        name, natural = naturality
        v.extend((name, i) for i, sq in enumerate(squares) if not natural(sq))
    return ValidationReport.from_violations(v)


def validate_semimonad(
    f: FinFunctor, *, squares: tuple[CommutingSquare, ...] = ()
) -> ValidationReport:
    """Check the semi-monad laws of `nu` at f, and its naturality on
    squares out of f into other functors.  `nu` has already checked that
    its result is a functor."""
    base = j_object(f)
    upper = j_object(base.t)
    n = nu(f)

    def natural(sq: CommutingSquare) -> bool:
        inner = j_square(sq)
        outer = j_square(CommutingSquare(base.t, j_object(sq.right).t, inner, sq.bottom))
        return commutes(inner, n, nu(sq.right), outer)

    return _layered_report(
        (("nu-over-base", lambda: commutes(base.t, n, upper.t)),),
        (
            ("nu-unit", lambda: commutes(n, upper.s, counit_inclusion(base.j))),
            ("nu-associativity", lambda: commutes(
                n, nu(base.t), n, _j_over_base(upper, n.obj_map))),
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
    compatibility with the multiplication."""
    f, p = alg.functor, alg.structure
    pres = j_object(f)
    return _layered_report(
        (
            ("structure-functor", lambda: validate_functor(p).ok),
            ("strictness", lambda: commutes(f, p, pres.t)),
        ),
        (
            ("unit", lambda: commutes(p, pres.s, counit_inclusion(f.dom))),
            ("multiplication", lambda: commutes(
                p, _j_over_base(pres, p.obj_map), p, nu(f))),
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
    obj_map = {x: l.target(a, u) for x, (a, u) in pres.obj_pairs.items()}
    mor_map = {
        m: l.lift(l.target(a, u), v) for m, (a, u, v) in pres.mor_parts.items()
    }
    return JrAlgebra(f, FinFunctor(pres.j, f.dom, obj_map, mor_map))


def lens_from_jr(alg: JrAlgebra) -> DeltaLens:
    """Read a lifting table off an algebra: the lift of (a, u) is the
    structure map's image of the extension of (a, identity) by u."""
    if not validate_jr_algebra(alg).ok:
        raise ContractError("structure map fails the coslice algebra laws")
    f, p = alg.functor, alg.structure
    B = f.cod
    id_of = j_object(f).id_of
    entries = {
        (a, u): p.mor_map[id_of[(a, B.identity[f.obj_map[a]], u)]]
        for a, u in lens_pairs(f)
    }
    return DeltaLens(f, LiftingTable(entries))
