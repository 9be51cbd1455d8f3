"""The algebraic factorisation of a functor and its (co)monad structure.

Every functor f: A -> B factors as an initial functor Lf into a
category Ef of formal extensions, followed by a projection Rf back onto
B; the coslice inclusion alpha: Jf -> Ef is bijective on objects.  Ef
glues the domain A onto the coslice category Jf along the placement of
objects at identities.  Its morphisms are the coslice morphisms, under
their Jf ids, and the crossings (a1, u1) -> (a2, u2), one for each
non-identity domain morphism w: a1 -> a2, retraction v of u1 and u2 out
of the image of a2, named `tag("I", u1, v, w, u2)`: enter along v,
cross through w, exit along u2.  The normal forms these ids stand for,
and their composite, are kept in `tests/oracles.py` as the reference
the tests compare Ef with.

Composition needs no arithmetic on normal forms.  Coslice morphisms
compose as in Jf.  A composite that involves a crossing is looked up in
the row of crossings entering along the same coslice morphism, by the
domain morphism crossed and the target (`_glued_compose`): the middle
retraction between two crossings cancels, and where their domain
morphisms compose to an identity the row holds the coslice morphism
that the composite collapses to.  These rows of crossings are Ef's rule:
a row of Ef's table is built the first time it is read (`FinCat.row`),
so a large Ef that is only the codomain of copairings builds the few
rows they read, and a reader of the whole table builds them all
(`FinCat.after`).  Ef is keyed by its inputs, A, f's object map and
the part of f's codomain it reads (`_reached_key`), not by a copy of
its table.

Ef is a pushout, so a functor out of it is fixed by its two
restrictions, one to the domain and one to the coslice, and `copair`
builds it from them unchecked: from functor legs it builds a functor.
Every functor out of Ef that is made from other functors is such a
copairing.  The projection Rf copairs the functors f and t, the coslice
projection, so it is a functor and restricts to both; like Jf, Ef is
built unchecked (`e_object`).  Each of the others has functor legs: E on
squares (`e_square`) by the argument in `j_square`'s docstring, the
collapse `mu` of one tower level by the one in `nu`'s, the split
`comonad_data` by the same argument for its coslice leg, and the
extension of a coslice algebra (`r_algebra_from_jr`) through
`validate_jr_algebra`.  As alpha is the identity on ids, a coslice leg
into Jg already names Eg's ids, so E on squares and the split build no
composite with alpha.  Algebras for the monad R are again exactly delta
lenses; the free one, `free_lens`, lifts along the projection Rf by the
coslice morphisms.  Coalgebras for the comonad L are the functors that
lift squares into lenses: against a coalgebra (f, q) and a lens with
algebra structure p, the diagonal of a square is p . E(top, bottom) . q
(`lift_against_coalgebra`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    InternalInvariantError,
    ValidationReport,
    _lawful_by_construction,
    _table_key,
    commutes,
    compose_functors,
    identity_functor,
    memo_by_key,
    same_cat,
    same_functor,
    tag,
    validate_functor,
)
from .factorization import CommutingSquare, _square_by_construction
from .lens import DeltaLens, LiftingTable, validate_lens
from .semimonad import (
    JPresentation,
    JrAlgebra,
    _collapse,
    _layered_report,
    j_object,
    j_square,
    jr_from_lens,
    lens_from_jr,
    validate_jr_algebra,
)


# -- the factorisation -------------------------------------------------------


@dataclass(frozen=True)
class EfPresentation:
    """The glued category of a functor with all its structure legs.

    functor    the functor being factored
    j          its coslice presentation
    e          the glued category; its ids are the coslice's and one
               `tag("I", u1, v, w, u2)` per row of `crossings` (the
               normal forms they stand for are kept in `tests/oracles.py`)
    lf         domain -> e, initial (not bijective on objects in general)
    crossings  (m, enter, w, exit) for each crossing m: the coslice
               morphisms it enters and leaves along, and the non-identity
               domain morphism w it crosses through
    alpha      coslice -> e, the identity on identifiers, built on first
               read; e has the coslice's objects and shares its `identity`
               table, and their pairs (a, u) are the keys of `j.obj_id`

    e's rows, like the coslice's (`kernel.elements`), are built as read
    from tables fixed at build, so each equals the row built up front.

    The projection `rf`, e -> codomain with f = rf . lf, is a copairing
    like every other functor out of e made from other functors: of the
    functor with the coslice projection t, built on first use.  It is a
    functor with rf . alpha = t and rf . lf = f, as a copairing of functor
    legs is a functor that restricts to them (`copair`), and the placement
    check holds as t sends (a, 1) to f(a).
    """

    functor: FinFunctor
    j: JPresentation
    e: FinCat
    lf: FinFunctor
    crossings: tuple[tuple[str, str, str, str], ...]

    @cached_property
    def rf(self) -> FinFunctor:
        return copair(self, self.functor, self.j.t)

    @cached_property
    def alpha(self) -> FinFunctor:
        J = self.j.j
        return FinFunctor(J, self.e, {x: x for x in J.objects}, {m: m for m in J.morphisms})


def retraction_pairs(f: FinFunctor, a: str) -> list[tuple[str, str]]:
    """All (u1, v) with v a retraction of u1 at the image of a."""
    B = f.cod
    fa = f.obj_map[a]
    one = B.identity[fa]
    return [
        (u1, v)
        for u1 in B.out(fa)
        for v in B.hom(B.tgt[u1], fa)
        if B.row(u1)[v] == one
    ]


@memo_by_key
def e_object(f: FinFunctor) -> EfPresentation:
    """Build (and cache) the glued factorisation of f, unchecked.  e is the
    pushout of Jf and A under the discrete domain, whose normal forms
    (`tests/oracles.py`) `_glued_compose` composes, so it is marked lawful;
    its legs Lf and alpha are functors that agree on placed objects.  Lf is
    initial: the crossing u . Lf(w) into (a, u) from (a2, 1) is joined by w
    to the coslice u out of (a, 1).  The `constructions` family checks this.
    e's rows are built as read, by `_glued_compose` from tables fixed here,
    so each equals the row built up front (`tests/oracles.py`).  e shares
    Jf's `identity` table, as it has Jf's objects and identities, alpha is
    built on first read, and e is keyed by what its tables are read from:
    A, f's object map and `_reached_key`, not its morphism map."""
    A, B = f.dom, f.cod
    jp = j_object(f)
    J, placed = jp.j, jp.s.obj_map
    src, tgt = dict(J.src), dict(J.tgt)
    crossings = []
    retr = {a: retraction_pairs(f, a) for a in A.objects}
    for w in A.nonidentity:
        a1, a2 = A.src[w], A.tgt[w]
        exits = jp.mor_id[(a2, B.identity[f.obj_map[a2]])]
        for (u1, v) in retr[a1]:
            for u2, exit_ in exits.items():
                m = tag("I", u1, v, w, u2)
                src[m] = jp.obj_id[(a1, u1)]
                tgt[m] = jp.obj_id[(a2, u2)]
                crossings.append((m, jp.mor_id[(a1, u1)][v], w, exit_))
    e = _lawful_by_construction(
        FinCat(J.objects, tuple(src), src, tgt, J.identity, _glued_compose(jp, A, crossings)),
        ("E", A.key, tuple(map(f.obj_map.__getitem__, A.objects)), _reached_key(f)))
    # Lf(w) is the crossing through w that enters and leaves along identities.
    ids = J.identity_set
    lf_map = {w: m for m, enter, w, exit_ in crossings if enter in ids and exit_ in ids}
    lf_map.update({A.identity[a]: J.identity[placed[a]] for a in A.objects})
    lf = FinFunctor(A, e, dict(placed), lf_map)
    return EfPresentation(f, jp, e, lf, tuple(crossings))


def _reached_key(f: FinFunctor) -> tuple:
    """A key of what J(f) and E(f) read of f's codomain B: the full
    subcategory on the objects reached from f's image, the targets of the
    morphisms out of it.  A B keyed by its construction gives its own key,
    which holds all of B and copies no table; any other B gives the table
    key of that subcategory, so codomains that differ only elsewhere give
    one key."""
    B = f.cod
    key = B.__dict__.get("key")
    if key is not None and isinstance(key[0], str):
        return key
    objects = tuple(sorted({B.tgt[u] for x in set(f.obj_map.values()) for u in B.out(x)}))
    mors = tuple(sorted(m for x in objects for m in B.out(x)))
    return (objects, mors, tuple(map(B.tgt.__getitem__, mors)),
            tuple(map(B.identity.__getitem__, objects)), tuple(_table_key(B.row(m)) for m in mors))


def _glued_compose(
    jp: JPresentation, A: FinCat, crossings: list[tuple[str, str, str, str]]
) -> Callable[[str], dict[str, str]]:
    """Ef's composition rule, m -> the row of m, by lookups in Jf's rows
    and in rows of crossings.

    rows[enter][w][y] is the crossing that enters along the coslice
    morphism `enter` into a placed object (a, 1), crosses through w and
    lands on the object y.  Its collapse entries rows[enter][1_a][y] hold
    the coslice composite c . enter for each c: (a, 1) -> y.  Coslice
    morphisms compose as in Jf, and for a crossing m1 in rows[enter][w][y]

      m1 then a coslice c: y -> z         is rows[enter][w][z],
      m1 then a crossing of row enter2    is rows[enter][w2.w][z]: the
        through w2 to z                   middle retraction cancels,
      a coslice c, then a crossing of     is rows[enter2 . c][w2][z].
        row enter2 through w2 to z

    These rows of crossings are built up front; a row of Ef is built from
    them when it is read, and a coslice morphism that no crossing can
    follow keeps Jf's row.  A's rows are read one at a time, so a glued A
    builds only the rows of the w crossed.
    """
    J, placed, ids = jp.j, jp.s.obj_map, A.identity_set
    j_row, a_row = J.row, A.row
    rows: dict[str, dict[str, dict[str, str]]] = {}
    for m, enter, w, exit_ in crossings:
        row = rows.get(enter)
        if row is None:
            a, after_enter = A.src[w], j_row(enter)
            collapse = {J.tgt[c]: after_enter[c] for c in J.out(placed[a])}
            row = rows[enter] = {A.identity[a]: collapse}
        row.setdefault(w, {})[J.tgt[exit_]] = m
    crossing = {c[0]: c for c in crossings}
    # leaving[x]: (enter, w, rows[enter][w]) for the crossings out of x
    leaving: dict[str, list[tuple[str, str, dict[str, str]]]] = {x: [] for x in J.objects}
    for enter, row in rows.items():
        leaving[J.src[enter]].extend((enter, w, to) for w, to in row.items() if w not in ids)

    def row_of(m: str) -> dict[str, str]:
        if m not in crossing:  # a coslice morphism, or no morphism at all
            after_m = j_row(m)
            if not (after_m and leaving[J.tgt[m]]):
                return after_m
            out = dict(after_m)
            for enter2, w2, to2 in leaving[J.tgt[m]]:
                through = rows[after_m[enter2]][w2]
                out.update({m2: through[z] for z, m2 in to2.items()})
            return out
        _, enter, w, exit_ = crossing[m]
        row, after_w, y = rows[enter], a_row(w), J.tgt[exit_]
        to = row[w]
        out = {c: to[J.tgt[c]] for c in J.out(y)}
        for _, w2, to2 in leaving[y]:
            through = row[after_w[w2]]
            out.update({m2: through[z] for z, m2 in to2.items()})
        return out

    return row_of


def e_square(sq: CommutingSquare) -> FinFunctor:
    """Apply the factorisation to a commuting square of functors: the
    copairing of Lg . top with the coslice image of the square followed by
    the coslice inclusion of Eg.  As alpha_g is the identity on ids,
    `j_square(sq)` already names Eg's ids and is extended in place
    (`_glue`); of the two composites only Lg . top's tables on A are made.

    Requires the legs of `sq` to be functors.  The coslice image is then a
    functor on Jf that lies over the bottom leg and keeps identity
    placement, by the argument in `j_square`'s docstring.  The result
    commutes over the base (Rg after it is the bottom leg after Rf): both
    sides are functors out of Ef that agree after Lf, as
    g . top = bottom . f, and after alpha, as the coslice image lies over
    the bottom leg and R after alpha is the coslice projection
    (`EfPresentation`)."""
    ef, eg = e_object(sq.left), e_object(sq.right)
    on_j, top, lg = j_square(sq), sq.top, eg.lf
    on_a_obj = {a: lg.obj_map[x] for a, x in top.obj_map.items()}
    on_a_mor = {w: lg.mor_map[u] for w, u in top.mor_map.items()}
    return _glue(ef, eg.e, on_j.obj_map, on_j.mor_map, on_a_obj, on_a_mor)


def copair(pres: EfPresentation, on_a: FinFunctor, on_j: FinFunctor) -> FinFunctor:
    """Mediate out of the glueing: the unique functor agreeing with
    on_a through the domain inclusion and with on_j through the coslice
    inclusion.  Requires both legs to be functors, and checks that they
    agree on placed objects.

    A crossing goes to on_j(exit) . on_a(w) . on_j(enter), read off
    `pres.crossings`; every other id goes where on_j sends it.

    The result is a functor, so it is not checked.  A crossing's image is
    typed as on_j and on_a agree at (a, 1).  For m2 after m1, by the cases
    of `_glued_compose`: on_j keeps coslice composites, among them c . exit
    and enter . c where a crossing meets a coslice c; for two
    crossings, enter2 . exit1 is a placed identity, sent to on_a's by the
    placement check, so the images compose to on_j(exit2) . on_a(w2.w1) .
    on_j(enter1), the image of the composite crossing or, where w2.w1 is
    an identity, of the coslice collapse exit2 . enter1.  It restricts to
    on_j by construction, alpha being the identity on ids, and to on_a:
    Lf sends a to (a, 1) and 1_a to its identity, where the placement
    check makes on_j agree with on_a, and a non-identity w to the crossing
    through w along placed identities, which goes to on_a(1) . on_a(w) .
    on_a(1) = on_a(w)."""
    if not same_cat(on_a.dom, pres.functor.dom) or not same_cat(on_j.dom, pres.j.j):
        raise InputError("copair legs do not start at the glueing feet")
    if not same_cat(on_a.cod, on_j.cod):
        raise InputError("copair legs do not share a codomain")
    return _glue(pres, on_a.cod, dict(on_j.obj_map), dict(on_j.mor_map), on_a.obj_map, on_a.mor_map)


def _glue(
    pres: EfPresentation, X: FinCat, obj_map: dict, mor_map: dict, on_a_obj: dict, on_a_mor: dict
) -> FinFunctor:
    """`copair` into X from the legs' tables, less its boundary checks: on_j's
    tables obj_map and mor_map become the result's, mor_map extended in place."""
    A, placed = pres.functor.dom, pres.j.s
    # The two legs restricted to the discrete category on A: equal values
    # on each object a and on its identity.
    if any(
        obj_map[placed.obj_map[a]] != on_a_obj[a]
        or mor_map[placed.mor_map[A.identity[a]]] != on_a_mor[A.identity[a]]
        for a in A.objects
    ):
        raise ContractError("copair legs disagree on placed objects")
    row = X.row  # a composite is None only if a leg is not a functor
    for m, enter, w, exit_ in pres.crossings:
        through = row(on_a_mor[w]).get(mor_map[exit_])
        mor_map[m] = row(mor_map[enter]).get(through)
    return FinFunctor(pres.e, X, obj_map, mor_map)


# -- the monad ----------------------------------------------------------------


@memo_by_key
def mu(f: FinFunctor) -> FinFunctor:
    """Collapse one tower level: E(rf of f) -> Ef, unchecked: it copairs
    the identity with `nu`'s collapse read in Ef, both functors, so it is
    one (`copair`; `mu-functor` decides it).  Rf after it is R(rf of f):
    the two agree after L (R . L is the functor factored, `EfPresentation`)
    and after alpha, where the collapse reads v straight through."""
    ef = e_object(f)
    upper = e_object(ef.rf)
    on_j = FinFunctor(upper.j.j, ef.e, *_collapse(upper.j, ef.j))
    return copair(upper, identity_functor(ef.e), on_j)


def validate_monad(
    f: FinFunctor, *, squares: tuple[CommutingSquare, ...] = ()
) -> ValidationReport:
    """Check the monad laws of `mu` at f, and its naturality on squares
    out of f into other functors.  `mu-functor` decides that `mu`, built
    unchecked, is a functor, and `rf-after-mu` makes the associativity
    law's square commute.  The unit's square commutes as rf . lf = f
    (`EfPresentation`).  Each naturality square's outer square commutes
    as `e_square`'s image commutes over the base."""
    ef = e_object(f)
    upper = e_object(ef.rf)
    m = mu(f)
    one = identity_functor(ef.e)
    eta = lambda: e_square(_square_by_construction(f, ef.rf, ef.lf, identity_functor(f.cod)))
    collapse = lambda: e_square(_square_by_construction(upper.rf, ef.rf, m, identity_functor(f.cod)))

    def natural(sq: CommutingSquare) -> bool:
        inner = e_square(sq)
        outer = e_square(_square_by_construction(ef.rf, e_object(sq.right).rf, inner, sq.bottom))
        return commutes(inner, m, mu(sq.right), outer)

    return _layered_report(
        (("mu-functor", lambda: validate_functor(m)),
         ("rf-after-mu", lambda: commutes(ef.rf, m, upper.rf))),
        (
            ("mu-unit-left", lambda: commutes(m, upper.lf, one)),
            ("mu-unit-right", lambda: commutes(m, eta(), one)),
            ("mu-associativity", lambda: commutes(m, collapse(), m, mu(ef.rf))),
        ),
        f=f,
        squares=squares,
        naturality=("mu-naturality", natural),
    )


# -- algebras -----------------------------------------------------------------


@dataclass(frozen=True)
class RAlgebra:
    """A functor with a structure map collapsing its glued category."""

    functor: FinFunctor
    structure: FinFunctor

    def __post_init__(self):
        pres = e_object(self.functor)
        if not same_cat(self.structure.dom, pres.e):
            raise InputError("structure map does not start at the glued category")
        if not same_cat(self.structure.cod, self.functor.dom):
            raise InputError("structure map does not land in the functor domain")


def validate_r_algebra(alg: RAlgebra) -> ValidationReport:
    """Check the algebra laws: strictness over the base, unit, and
    compatibility with the multiplication, whose square commutes once
    strictness holds."""
    f, p = alg.functor, alg.structure
    ef = e_object(f)
    collapse = lambda: e_square(_square_by_construction(ef.rf, f, p, identity_functor(f.cod)))
    return _layered_report(
        (
            ("structure-functor", lambda: validate_functor(p).ok),
            ("strictness", lambda: commutes(f, p, ef.rf)),
        ),
        (
            ("unit", lambda: commutes(p, ef.lf, identity_functor(f.dom))),
            ("multiplication", lambda: commutes(p, collapse(), p, mu(f))),
        ),
    )


def r_algebra_from_jr(alg: JrAlgebra) -> RAlgebra:
    """Extend a coslice structure map over the glueing by copairing
    with the identity on the functor domain."""
    if not validate_jr_algebra(alg).ok:
        raise ContractError("structure map fails the coslice algebra laws")
    ef = e_object(alg.functor)
    return RAlgebra(alg.functor, copair(ef, identity_functor(alg.functor.dom), alg.structure))


def jr_from_r_algebra(alg: RAlgebra) -> JrAlgebra:
    """Restrict a glued structure map back along the coslice inclusion."""
    if not validate_r_algebra(alg).ok:
        raise ContractError("structure map fails the R-algebra laws")
    ef = e_object(alg.functor)
    return JrAlgebra(alg.functor, compose_functors(alg.structure, ef.alpha))


def lens_to_r_algebra(l: DeltaLens) -> RAlgebra:
    return r_algebra_from_jr(jr_from_lens(l))


def r_algebra_to_lens(alg: RAlgebra) -> DeltaLens:
    return lens_from_jr(jr_from_r_algebra(alg))


def free_lens(f: FinFunctor) -> DeltaLens:
    """The lens structure carried by the projection of the glued
    category: the lift of v at (a, u) is the coslice morphism
    (a, u) -> (a, v.u)."""
    ef = e_object(f)
    jp = ef.j
    entries = {(jp.obj_id[p], v): m for p, row in jp.mor_id.items() for v, m in row.items()}
    l = DeltaLens(ef.rf, LiftingTable(entries))
    validate_lens(l).require("projection lifting table fails the lens laws")
    return l


# -- the comonad --------------------------------------------------------------


@memo_by_key
def comonad_data(f: FinFunctor) -> FinFunctor:
    """Split one tower level open: the comultiplication Ef -> E(lf of f),
    the copairing of L(lf of f) with the coslice map delta: Jf -> J(lf of
    f), read by lookup as `nu`'s collapse is, and as landing in E(lf of f),
    as alpha is the identity on ids.  delta sends (a, u) to (a, c_u), c_u
    the coslice arrow (a, 1) -> (a, u) out of Lf(a), and the arrow v at
    (a, u), an arrow m of Ef, to the arrow m at (a, c_u).  Unchecked, it is
    a functor as in `j_square`, as m . c_u = c_{v.u} and coslice arrows
    compose in Ef as in Jf (`delta-functor` decides it), and so is the
    copairing (`copair`).  For the legs s' and t' of J(lf of f), delta . s
    = s' as c_1 is an identity (`_glue`'s placement check), and t' . delta
    = alpha as t' reads off (a, u) and m (`counit-left`: R(lf of f) after
    the split is the identity, which along alpha is this equation).  The
    split restricts to L(lf of f) after Lf, and R(lf of f) after it is the
    identity, as the two agree after Lf and after alpha (R . L is the functor
    factored and R . alpha the coslice projection, `EfPresentation`)."""
    ef = e_object(f)
    el, jp = e_object(ef.lf), ef.j
    obj_map, mor_map = {}, {}
    for (a, u), row in jp.mor_id.items():
        pair = (a, jp.mor_id[(a, f.cod.identity[f.obj_map[a]])][u])
        obj_map[jp.obj_id[(a, u)]] = el.j.obj_id[pair]
        image = el.j.mor_id[pair]
        mor_map.update((m, image[m]) for m in row.values())
    return copair(ef, el.lf, FinFunctor(jp.j, el.e, obj_map, mor_map))


def validate_comonad(
    f: FinFunctor, *, squares: tuple[CommutingSquare, ...] = ()
) -> ValidationReport:
    """Check the comonad laws of `comonad_data` at f, and its naturality
    on squares out of f into other functors.  `delta-functor` decides
    that `comonad_data`, built unchecked, is a functor, and `delta-square`
    makes the coassociativity law's split square commute.  The counit's
    square commutes as rf . lf = f (`EfPresentation`).  Each naturality
    square's lifted square commutes as `e_square`'s image restricts to
    Lg . top."""
    ef = e_object(f)
    el = e_object(ef.lf)
    c = comonad_data(f)
    one = identity_functor(ef.e)
    counit = lambda: e_square(_square_by_construction(ef.lf, f, identity_functor(f.dom), ef.rf))
    split = lambda: e_square(_square_by_construction(ef.lf, el.lf, identity_functor(f.dom), c))

    def natural(sq: CommutingSquare) -> bool:
        inner = e_square(sq)
        lifted = _square_by_construction(ef.lf, e_object(sq.right).lf, sq.top, inner)
        return commutes(comonad_data(sq.right), inner, e_square(lifted), c)

    return _layered_report(
        (("delta-functor", lambda: validate_functor(c)),
         ("delta-square", lambda: commutes(c, ef.lf, el.lf))),
        (
            ("counit-left", lambda: commutes(el.rf, c, one)),
            ("counit-right", lambda: commutes(counit(), c, one)),
            ("coassociativity", lambda: commutes(comonad_data(ef.lf), c, split(), c)),
        ),
        f=f,
        squares=squares,
        naturality=("delta-naturality", natural),
    )


def validate_distributive_law(f: FinFunctor) -> ValidationReport:
    """Check that the split of a collapse agrees with the collapse of a
    split, the one exchange law not already forced by the (co)monads; the
    `square` check makes the exchange square commute."""
    ef = e_object(f)
    m = mu(f)
    c = comonad_data(f)
    erf = e_object(ef.rf)
    elf = e_object(ef.lf)
    exchange = lambda: e_square(_square_by_construction(erf.lf, elf.rf, c, m))
    return _layered_report(
        (("square", lambda: commutes(elf.rf, c, m, erf.lf)),),
        (("coherence", lambda: commutes(
            c, m, mu(ef.lf), compose_functors(exchange(), comonad_data(ef.rf)))),),
    )


# -- coalgebras and lifting ---------------------------------------------------


@dataclass(frozen=True)
class LCoalgebra:
    """A functor with a structure map splitting its codomain into the
    glued category."""

    functor: FinFunctor
    structure: FinFunctor

    def __post_init__(self):
        pres = e_object(self.functor)
        if not same_cat(self.structure.dom, self.functor.cod):
            raise InputError("structure map does not start at the functor codomain")
        if not same_cat(self.structure.cod, pres.e):
            raise InputError("structure map does not land in the glued category")


def validate_l_coalgebra(coalg: LCoalgebra) -> ValidationReport:
    v: list[tuple] = []
    f, q = coalg.functor, coalg.structure
    ef = e_object(f)
    if not validate_functor(q).ok:
        return ValidationReport.from_violations([("structure-functor",)])
    if not commutes(ef.rf, q, identity_functor(f.cod)):
        v.append(("section",))
    if not commutes(q, f, ef.lf):
        v.append(("unit-square",))
        return ValidationReport.from_violations(v)
    # The coaction square commutes: the unit square just held.
    coaction = _square_by_construction(f, ef.lf, identity_functor(f.dom), q)
    if not commutes(comonad_data(f), q, e_square(coaction), q):
        v.append(("comultiplication",))
    return ValidationReport.from_violations(v)


def cofree_coalgebra(f: FinFunctor) -> LCoalgebra:
    """The canonical coalgebra on the domain inclusion of f."""
    return LCoalgebra(e_object(f).lf, comonad_data(f))


def lift_against_coalgebra(
    sq: CommutingSquare, coalg: LCoalgebra, lens: DeltaLens
) -> FinFunctor:
    """Solve the square: a diagonal d with d.f = top and g.d = bottom,
    the composite p . E(top, bottom) . q of the coalgebra split q of
    the codomain of f, the square's image under E, and the R-algebra
    structure p of the lens.  `jr_from_lens` rejects an unlawful lens."""
    f, g = sq.left, sq.right
    if not same_functor(f, coalg.functor):
        raise InputError("square left leg does not match the coalgebra functor")
    if not same_functor(g, lens.functor):
        raise InputError("square right leg does not match the lens functor")
    if not validate_l_coalgebra(coalg).ok:
        raise ContractError("structure map fails the coalgebra laws")
    p = lens_to_r_algebra(lens).structure
    d = compose_functors(p, compose_functors(e_square(sq), coalg.structure))
    if not commutes(d, f, sq.top):
        raise InternalInvariantError("diagonal does not restrict to the top leg")
    if not commutes(g, d, sq.bottom):
        raise InternalInvariantError("diagonal does not project onto the bottom leg")
    return d
