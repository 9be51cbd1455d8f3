"""Corpus construction and the runnable law suite.

The corpus is every functor between every pair of registered fixture
categories, within guards.  Law families sweep the corpus and report
one case per checked instance; a case failure carries the violation
witness.  Case construction is deterministic; a seed only shuffles the
order in which cases are executed, never their content, and results
are reported sorted.

Every family runs its cases through `_guarded_cases`: an exception
raised inside one case, a broken construction invariant included,
fails that case with the witness `("error", "<type>: <message>")` and
the other cases still run.  Running out of memory or of recursion depth
is no verdict on a law: it stops the run at that case, which the result
names (`LawSuiteResult.stopped`).  A family does not re-check what the
construction it calls already decides: `comprehensive_factorise`,
`orthogonal_lift` and `free_lens` raise unless their results satisfy the
laws their families name.  The cached constructions check nothing: the
`constructions` family decides J(f) and E(f) on the corpus and the tower
inputs, and each (co)monad validator that its structure map is a functor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .kernel import (
    DEFAULT_GUARD,
    FinCat,
    FinFunctor,
    GuardExceededError,
    InputError,
    ValidationReport,
    commutes,
    compose_functors,
    counit_inclusion,
    enumerate_functors,
    identity_functor,
    same_cat,
    validate_category,
    validate_functor,
)
from .factorization import (
    CommutingSquare,
    _square_by_construction,
    comprehensive_factorise,
    is_discrete_opfibration,
    is_initial,
    orthogonal_lift,
)
from .fixtures import CORPUS
from .lens import (
    DeltaLens,
    identity_lens,
    lens_from_discrete_opfibration,
    lens_from_lambda,
    lambda_presentation,
    validate_lens_morphism,
)
from .search import enumerate_lens_structures
from .semimonad import _layered_report, jr_from_lens, lens_from_jr, validate_semimonad
from .awfs import (
    cofree_coalgebra,
    e_object,
    e_square,
    free_lens,
    lens_to_r_algebra,
    mu,
    r_algebra_to_lens,
    validate_comonad,
    validate_distributive_law,
    validate_l_coalgebra,
    validate_monad,
)

SQUARE_FIXTURES = ("interval", "terminal", "walking-iso", "walking-retraction")
TOWER_FIXTURES = ("discrete-pair", "interval", "parallel-pair", "terminal")
FAMILIES = (
    "fixtures",
    "constructions",
    "factorisation",
    "orthogonality",
    "semimonad",
    "free-lens",
    "lens-algebra",
    "monad",
    "comonad",
    "distributive",
    "tower",
    "coalgebra",
)

# Fully lawful but non-fixture inputs found under --corpus join the
# sweep alongside the builtin fixtures; anything broken becomes a
# failing fixtures case instead of a crash.


@dataclass(frozen=True)
class LawScope:
    """What the suite runs over."""

    fixtures: dict[str, FinCat]
    guard: int = DEFAULT_GUARD
    broken: dict[str, tuple] = field(default_factory=dict)


def default_scope() -> LawScope:
    return LawScope(fixtures=dict(CORPUS))


@dataclass(frozen=True)
class LawCase:
    family: str
    subject: str
    ok: bool
    witness: tuple = ()


@dataclass(frozen=True)
class LawSuiteResult:
    cases: tuple[LawCase, ...]
    skipped: tuple[str, ...] = ()
    stopped: str = ""  # "<family> <subject>: <error>" if a resource error ended the run

    @property
    def ok(self) -> bool:
        """True when the run finished, at least one case ran and every case passed."""
        return not self.stopped and bool(self.cases) and all(c.ok for c in self.cases)

    @property
    def failures(self) -> tuple[LawCase, ...]:
        return tuple(c for c in self.cases if not c.ok)


def corpus_functors(scope: LawScope) -> tuple[list[tuple[str, FinFunctor]], list[str]]:
    """Every functor between every fixture pair, named, plus skipped pairs."""
    out: list[tuple[str, FinFunctor]] = []
    skipped: list[str] = []
    names = sorted(scope.fixtures)
    for n1 in names:
        for n2 in names:
            try:
                funs = enumerate_functors(scope.fixtures[n1], scope.fixtures[n2], scope.guard)
            except GuardExceededError:
                skipped.append(f"{n1}->{n2}")
                continue
            out.extend((f"{n1}->{n2}#{i}", fun) for i, fun in enumerate(funs))
    return out, skipped


def corpus_squares(
    scope: LawScope, functors: list[tuple[str, FinFunctor]]
) -> list[tuple[str, CommutingSquare]]:
    """Every commuting square between corpus functors whose four corner
    fixtures all lie in the square sub-corpus.  A functor's corners are
    read off its categories, not its name, which a corpus file name may
    make ambiguous.  Tops and bottoms are corpus functors too, so a
    fixture pair that `corpus_functors` skipped has none.  Each square is
    made as the filter that decides its equation accepts it."""
    fixture_of = {
        scope.fixtures[name].key: name for name in SQUARE_FIXTURES if name in scope.fixtures
    }
    by_sig: dict[tuple[str, str], list[tuple[str, FinFunctor]]] = {}
    for name, fun in functors:
        d, c = fixture_of.get(fun.dom.key), fixture_of.get(fun.cod.key)
        if d is not None and c is not None:
            by_sig.setdefault((d, c), []).append((name, fun))
    # Two fixtures with equal tables give equal functors; each top and
    # bottom is taken once.
    corners = {
        sig: list({fun.key: fun for _, fun in funs}.values()) for sig, funs in by_sig.items()
    }
    out: list[tuple[str, CommutingSquare]] = []
    sigs = sorted(by_sig)
    for sig_f in sigs:
        for sig_g in sigs:
            tops = corners.get((sig_f[0], sig_g[0]), ())
            bottoms = corners.get((sig_f[1], sig_g[1]), ())
            for fname, f in by_sig[sig_f]:
                for gname, g in by_sig[sig_g]:
                    n = 0
                    for h in tops:
                        for k in bottoms:
                            if commutes(g, h, k, f):
                                sq = _square_by_construction(f, g, h, k)
                                out.append((f"{fname}=>{gname}#{n}", sq))
                                n += 1
    return out


def corpus_lenses(
    scope: LawScope, functors: list[tuple[str, FinFunctor]]
) -> list[tuple[str, DeltaLens]]:
    """Identity lenses, the unique lenses on corpus discrete
    opfibrations, and small enumerated lens structures."""
    out: list[tuple[str, DeltaLens]] = []
    for name in sorted(scope.fixtures):
        out.append((f"id:{name}", identity_lens(scope.fixtures[name])))
    seen = {l.functor.key for _, l in out}
    for name, fun in functors:
        if is_discrete_opfibration(fun) and fun.key not in seen:
            seen.add(fun.key)
            out.append((f"dof:{name}", lens_from_discrete_opfibration(fun)))
    for name, fun in functors:
        if fun.key in seen:
            continue
        try:
            structures = enumerate_lens_structures(fun, guard=4096)
        except GuardExceededError:
            continue
        out.extend((f"table:{name}#{i}", l) for i, l in enumerate(structures))
    return out


class _Stopped(Exception):
    """A case ran out of memory or of recursion depth."""


def _guarded_cases(family: str, items, check) -> list[LawCase]:
    """One case per named item, from `check(item)`: a verdict or a
    `ValidationReport`.  An exception it raises becomes a failing case
    whose witness names the error, except a `MemoryError` or a
    `RecursionError`, which stops the run (`_Stopped`)."""
    cases = []
    for name, item in items:
        try:
            out = check(item)
        except (MemoryError, RecursionError) as exc:
            raise _Stopped(f"{family} {name}: {type(exc).__name__}") from None
        except Exception as exc:
            out = ValidationReport.from_violations([("error", f"{type(exc).__name__}: {exc}")])
        if isinstance(out, ValidationReport):
            cases.append(LawCase(family, name, out.ok, out.violations[:8]))
        else:
            cases.append(LawCase(family, name, out))
    return cases


def _fixture_cases(scope: LawScope) -> list[LawCase]:
    fixtures = [(name, scope.fixtures[name]) for name in sorted(scope.fixtures)]
    cases = _guarded_cases("fixtures", fixtures, validate_category)
    cases.extend(
        LawCase("fixtures", name, False, witness) for name, witness in sorted(scope.broken.items())
    )
    return cases


def _constructions_report(f: FinFunctor) -> ValidationReport:
    """The facts `j_object` and `e_object` argue for unchecked: J(f) and E(f)
    are categories, by their full reports, then the laws of their legs."""
    ef = e_object(f)
    jp, iota = ef.j, counit_inclusion(f.dom)
    return _layered_report(
        (("j-category", lambda: validate_category(jp.j)),
         ("e-category", lambda: validate_category(ef.e))),
        (
            ("s-functor", lambda: validate_functor(jp.s).ok),
            ("t-functor", lambda: validate_functor(jp.t).ok),
            ("s-initial", lambda: is_initial(jp.s)),
            ("t-discrete-opfibration", lambda: is_discrete_opfibration(jp.t)),
            ("t-after-s", lambda: commutes(jp.t, jp.s, f, iota)),
            ("lf-functor", lambda: validate_functor(ef.lf).ok),
            ("alpha-functor", lambda: validate_functor(ef.alpha).ok),
            ("rf-functor", lambda: validate_functor(ef.rf).ok),
            ("rf-after-lf", lambda: commutes(ef.rf, ef.lf, f)),
            ("alpha-after-s", lambda: commutes(ef.alpha, jp.s, ef.lf, iota)),
            ("lf-initial", lambda: is_initial(ef.lf)),
        ),
    )


def _factorises(fun: FinFunctor) -> bool:
    # Raises unless the first leg is initial, the second a discrete
    # opfibration, and the two recompose to fun.
    comprehensive_factorise(fun)
    return True


def _factorisation_cases(functors) -> list[LawCase]:
    cases = _guarded_cases("factorisation", functors, _factorises)
    # Classes are decided once per functor, and f . g is composed only where
    # a premise can fire: where g is initial or f a discrete opfibration.
    classes = {name: (is_initial(fun), is_discrete_opfibration(fun)) for name, fun in functors}
    by_key: dict[tuple, list[tuple[str, FinFunctor]]] = {}
    for name, fun in functors:
        by_key.setdefault(fun.dom.key, []).append((name, fun))
    for gname, g in functors:
        g_init, g_dof = classes[gname]
        for fname, f in by_key.get(g.cod.key, ()):
            f_init, f_dof = classes[fname]
            if not (g_init or f_dof) or not same_cat(f.dom, g.cod):
                continue
            gf = compose_functors(f, g)
            gf_init = g_init and is_initial(gf)
            gf_dof = f_dof and is_discrete_opfibration(gf)
            checks = []
            if f_init and g_init and not gf_init:
                checks.append(("initial-composition",))
            if f_dof and g_dof and not gf_dof:
                checks.append(("opfibration-composition",))
            if gf_init and g_init and not f_init:
                checks.append(("initial-cancellation",))
            if gf_dof and f_dof and not g_dof:
                checks.append(("opfibration-cancellation",))
            if checks:
                cases.append(LawCase("factorisation", f"{fname}.{gname}", False, tuple(checks)))
    cases.append(LawCase("factorisation", "closure-and-cancellation", True))
    return cases


def _lifts(sq: CommutingSquare) -> bool:
    # Raises unless the diagonal is a functor making both triangles commute.
    orthogonal_lift(sq)
    return True


def _orthogonality_cases(squares) -> list[LawCase]:
    liftable = [
        (name, sq)
        for name, sq in squares
        if is_initial(sq.left) and is_discrete_opfibration(sq.right)
    ]
    return _guarded_cases("orthogonality", liftable, _lifts)


def _free_lens_is_free(fun: FinFunctor, squares, lenses_on) -> bool:
    # `free_lens` raises unless its table satisfies the lens laws; the lens
    # is free when its R-algebra is the free one, (Rf, mu_f), and each
    # square fun => g with a lens on g factors through it: for p the
    # lens's R-algebra structure, d = p . E(sq) restricts to the top leg
    # along Lf, covers the bottom leg along Rf, and is a lens morphism.
    free = free_lens(fun)
    if lens_to_r_algebra(free).structure != mu(fun):
        return False
    ef = e_object(fun)
    for sq in squares:
        g = sq.right
        for l in lenses_on.get(g.key, ()):
            d = compose_functors(lens_to_r_algebra(l).structure, e_square(sq))
            if not (commutes(d, ef.lf, sq.top) and commutes(g, d, sq.bottom, ef.rf)):
                return False
            if not validate_lens_morphism(_square_by_construction(ef.rf, g, d, sq.bottom), free, l).ok:
                return False
    return True


def _round_trips(l: DeltaLens) -> bool:
    rt = lens_from_jr(jr_from_lens(l))
    rt2 = r_algebra_to_lens(lens_to_r_algebra(l))
    pres = lambda_presentation(l)
    ok = rt.lifts == l.lifts and rt2.lifts == l.lifts
    return ok and lens_from_lambda(pres, l.functor).lifts == l.lifts


def _group_squares(squares) -> dict[tuple, tuple[CommutingSquare, ...]]:
    by_left: dict[tuple, list[CommutingSquare]] = {}
    for _, sq in squares:
        by_left.setdefault(sq.left.key, []).append(sq)
    return {key: tuple(sqs) for key, sqs in by_left.items()}


def _square_family_cases(family: str, validate, functors, by_left) -> list[LawCase]:
    """One case per functor: `validate` at it with its naturality squares."""
    return _guarded_cases(
        family, functors, lambda fun: validate(fun, squares=by_left.get(fun.key, ()))
    )


def _tower_inputs(scope) -> list[tuple[str, FinFunctor]]:
    out = []
    for name in sorted(TOWER_FIXTURES):
        if name not in scope.fixtures:
            continue
        c = scope.fixtures[name]
        out.append((f"id:{name}", identity_functor(c)))
        out.append((f"iota:{name}", counit_inclusion(c)))
    return out


_TOWER_CHECKS = (
    ("monad@rf", lambda ef: validate_monad(ef.rf)),
    ("comonad@lf", lambda ef: validate_comonad(ef.lf)),
    ("distributive@rf", lambda ef: validate_distributive_law(ef.rf)),
    ("distributive@lf", lambda ef: validate_distributive_law(ef.lf)),
)


def _tower_cases(scope) -> list[LawCase]:
    """The (co)monad and distributive checks on the legs of each tower input."""
    items = [
        (f"{label}:{name}", (check, fun))
        for name, fun in _tower_inputs(scope)
        for label, check in _TOWER_CHECKS
    ]
    return _guarded_cases("tower", items, lambda item: item[0](e_object(item[1])))


def run_laws(
    scope: LawScope | None = None,
    *,
    families: tuple[str, ...] | None = None,
    seed: int | None = None,
) -> LawSuiteResult:
    """Run the law suite and report one case per checked instance.  An
    entry of `families` that is not a law family is an InputError, raised
    before any family runs."""
    scope = scope or default_scope()
    wanted = families if families is not None else FAMILIES
    for fam in wanted:
        if fam not in FAMILIES:
            raise InputError(f"unknown law family: {fam!r}")
    functors, skipped = corpus_functors(scope)
    squares = corpus_squares(scope, functors) if (
        {"orthogonality", "semimonad", "free-lens", "monad", "comonad"} & set(wanted)
    ) else []
    lenses = corpus_lenses(scope, functors) if {"free-lens", "lens-algebra"} & set(wanted) else []
    by_left = _group_squares(squares)
    lenses_on: dict[tuple, list[DeltaLens]] = {}
    for _, l in lenses:
        lenses_on.setdefault(l.functor.key, []).append(l)

    builders = {
        "fixtures": lambda: _fixture_cases(scope),
        "constructions": lambda: _guarded_cases(
            "constructions", functors + _tower_inputs(scope), _constructions_report
        ),
        "factorisation": lambda: _factorisation_cases(functors),
        "orthogonality": lambda: _orthogonality_cases(squares),
        "semimonad": lambda: _square_family_cases("semimonad", validate_semimonad, functors, by_left),
        "free-lens": lambda: _guarded_cases(
            "free-lens",
            functors,
            lambda fun: _free_lens_is_free(fun, by_left.get(fun.key, ()), lenses_on),
        ),
        "lens-algebra": lambda: _guarded_cases("lens-algebra", lenses, _round_trips),
        "monad": lambda: _square_family_cases("monad", validate_monad, functors, by_left),
        "comonad": lambda: _square_family_cases("comonad", validate_comonad, functors, by_left),
        "distributive": lambda: _guarded_cases("distributive", functors, validate_distributive_law),
        "tower": lambda: _tower_cases(scope),
        "coalgebra": lambda: _guarded_cases(
            "coalgebra",
            [(f"cofree:{name}", fun) for name, fun in functors],
            lambda fun: validate_l_coalgebra(cofree_coalgebra(fun)),
        ),
    }
    order = [fam for fam in FAMILIES if fam in wanted]
    if seed is not None:
        random.Random(seed).shuffle(order)
    cases: list[LawCase] = []
    stopped = ""
    try:
        for fam in order:
            cases.extend(builders[fam]())
    except _Stopped as exc:
        stopped = str(exc)
    cases.sort(key=lambda c: (c.family, c.subject))
    return LawSuiteResult(tuple(cases), tuple(skipped), stopped)
