import pytest

from deltalens import awfs, laws
from deltalens.cli import main
from deltalens.fixtures import CORPUS
from deltalens.kernel import (
    InputError,
    InternalInvariantError,
    ValidationReport,
    compose_functors,
    identity_functor,
)
from deltalens.laws import (
    FAMILIES,
    LawScope,
    corpus_functors,
    corpus_lenses,
    corpus_squares,
    default_scope,
    run_laws,
)
from deltalens.search import enumerate_lens_structures


def test_unknown_family_is_rejected():
    with pytest.raises(InputError):
        run_laws(default_scope(), families=("made-up",))


def test_a_run_that_checks_nothing_is_not_ok():
    result = run_laws(default_scope(), families=())
    assert result.cases == ()
    assert not result.ok


def test_family_selection_limits_cases():
    result = run_laws(default_scope(), families=("factorisation",))
    assert result.cases
    assert {c.family for c in result.cases} == {"factorisation"}
    assert result.ok


def test_results_are_deterministic_across_seeds():
    fams = ("fixtures", "orthogonality", "free-lens")
    a = run_laws(default_scope(), families=fams, seed=11)
    b = run_laws(default_scope(), families=fams, seed=99)
    c = run_laws(default_scope(), families=fams)
    assert a.cases == b.cases == c.cases
    assert a.ok


def test_broken_extra_fixture_becomes_a_failing_case():
    scope = LawScope(
        fixtures=dict(CORPUS),
        broken={"weird": (("load-error", "unreadable"),)},
    )
    result = run_laws(scope, families=("fixtures",))
    assert not result.ok
    bad = [c for c in result.failures if c.subject == "weird"]
    assert bad and bad[0].witness == (("load-error", "unreadable"),)


def test_corpus_construction_is_deterministic(scope):
    f1, s1 = corpus_functors(scope)
    f2, s2 = corpus_functors(scope)
    assert [n for n, _ in f1] == [n for n, _ in f2]
    assert s1 == s2 == []
    q1 = corpus_squares(scope, f1)
    q2 = corpus_squares(scope, f1)
    assert [n for n, _ in q1] == [n for n, _ in q2]
    l1 = corpus_lenses(scope, f1)
    assert len({n for n, _ in l1}) == len(l1)


def test_a_fixture_under_a_second_name_adds_no_tops_or_bottoms(scope, corpus_sqs):
    # Functors on the copy share their corners with those on the
    # original, and equal functors are one top or bottom, so the squares
    # between functors on the original keep their names and count.
    wider = LawScope(fixtures={**scope.fixtures, "copy": scope.fixtures["interval"]})
    functors, _ = corpus_functors(wider)
    squares = corpus_squares(wider, functors)
    assert len(squares) > len(corpus_sqs)
    assert [(n, sq) for n, sq in squares if "copy" not in n] == corpus_sqs


def test_corpus_has_advertised_shape(corpus_funs, corpus_sqs, corpus_lens_list):
    assert len(corpus_funs) >= 50
    assert len(corpus_sqs) >= 500
    assert len(corpus_lens_list) >= 20
    prefixes = {n.split(":")[0] for n, _ in corpus_lens_list}
    assert {"id", "dof", "table"} <= prefixes


def test_constructions_family_covers_the_corpus_and_the_tower_inputs(corpus_funs):
    # One case per corpus functor and one per tower input: 125 + 8.
    result = run_laws(families=("constructions",))
    assert (len(corpus_funs), len(laws._tower_inputs(default_scope()))) == (125, 8)
    assert len(result.cases) == 133
    assert result.ok


def test_every_family_name_runs():
    quick = ("fixtures", "tower")
    result = run_laws(default_scope(), families=quick)
    fams = {c.family for c in result.cases}
    assert fams == set(quick)
    assert set(FAMILIES) >= fams


def _raising_once(real, error=InternalInvariantError("injected")):
    """`real`, except that its first call raises `error`, a broken invariant
    unless another is given."""
    raised = []

    def patched(*args, **kwargs):
        if not raised:
            raised.append(True)
            raise error
        return real(*args, **kwargs)

    return patched


def test_a_raise_inside_a_case_fails_only_that_case(monkeypatch, capsys, corpus_funs):
    real = laws.validate_monad
    monkeypatch.setattr(laws, "validate_monad", _raising_once(real))
    result = run_laws(families=("fixtures", "monad"))
    assert len(result.cases) == len(CORPUS) + len(corpus_funs)
    assert [(c.family, c.witness) for c in result.failures] == [
        ("monad", (("error", "InternalInvariantError: injected"),))
    ]

    monkeypatch.setattr(laws, "validate_monad", _raising_once(real))
    assert main(["laws", "--families", "fixtures,monad"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"fixtures: {len(CORPUS)} cases, 0 failures",
        f"monad: {len(corpus_funs)} cases, 1 failures",
    ]
    assert lines[2].startswith("FAIL monad ") and lines[2].endswith(" :: error InternalInvariantError: injected")
    assert lines[3:] == ["suite: FAILED"]


@pytest.mark.parametrize(
    "family, validator",
    [
        ("fixtures", "validate_category"),
        ("semimonad", "validate_semimonad"),
        ("comonad", "validate_comonad"),
        ("distributive", "validate_distributive_law"),
        ("tower", "validate_comonad"),
    ],
)
def test_each_family_fails_only_the_case_that_raised(monkeypatch, family, validator):
    scope = LawScope(fixtures={name: CORPUS[name] for name in ("interval", "terminal")})
    monkeypatch.setattr(laws, validator, _raising_once(getattr(laws, validator)))
    result = run_laws(scope, families=(family,))
    assert len(result.cases) > 1
    assert [c.witness for c in result.failures] == [(("error", "InternalInvariantError: injected"),)]


@pytest.mark.parametrize(
    "law, predicate, fname, gname",
    [
        ("initial-composition", "is_initial", "interval->interval#1", "interval->interval#1"),
        ("opfibration-composition", "is_discrete_opfibration",
         "walking-retraction->walking-retraction#1", "walking-retraction->walking-retraction#1"),
        ("initial-cancellation", "is_initial", "interval->parallel-pair#1", "interval->interval#1"),
        ("opfibration-cancellation", "is_discrete_opfibration",
         "interval->interval#1", "discrete-pair->interval#0"),
    ],
)
def test_factorisation_family_fails_the_pair_whose_composite_is_misreported(
    monkeypatch, corpus_funs, law, predicate, fname, gname
):
    # The family decides each corpus functor's classes once, and a
    # composite's where a premise can fire.  The predicate misreports the
    # composite f . g, a fresh object equal to no other composite it is
    # asked about, and leaves every corpus functor alone.
    named = dict(corpus_funs)
    key = compose_functors(named[fname], named[gname]).key
    corpus = {id(fun) for _, fun in corpus_funs}
    real = getattr(laws, predicate)
    monkeypatch.setattr(laws, predicate, lambda fun: real(fun) != (fun.key == key and id(fun) not in corpus))
    failures = [(c.subject, c.witness) for c in laws._factorisation_cases(corpus_funs) if not c.ok]
    assert failures == [(f"{fname}.{gname}", ((law,),))]


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_running_out_of_resources_stops_the_run(monkeypatch, capsys, corpus_funs, error):
    # Running out is no verdict on the law, so no case fails: the run stops
    # at the case, is not ok, and `laws` exits 2, as on bad input.
    real = laws.validate_monad
    monkeypatch.setattr(laws, "validate_monad", _raising_once(real, error()))
    result = run_laws(families=("fixtures", "monad"))
    assert (result.ok, result.failures, result.stopped) == (
        False, (), f"monad {corpus_funs[0][0]}: {error.__name__}"
    )
    assert {c.family for c in result.cases} == {"fixtures"}

    monkeypatch.setattr(laws, "validate_monad", _raising_once(real, error()))
    assert main(["laws", "--families", "fixtures,monad"]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"fixtures: {len(CORPUS)} cases, 0 failures", "suite: stopped"]
    assert err == f"error: out of resources in {result.stopped}\n"


def test_witness_names_the_exception_type():
    def lookup(item):
        return {}[item]

    cases = laws._guarded_cases("x", [("a", "(0,u)")], lookup)
    assert cases == [laws.LawCase("x", "a", False, (("error", "KeyError: '(0,u)'"),))]


def test_free_lens_family_fails_every_other_lawful_lens_on_rf(monkeypatch, corpus_funs):
    # Rf carries other lawful lenses; the family tells the free one apart
    # by its R-algebra, which must be the free algebra (Rf, mu_f).
    others = {}
    for name, f in corpus_funs:
        free = awfs.free_lens(f).lifts
        found = [l for l in enumerate_lens_structures(awfs.e_object(f).rf) if l.lifts != free]
        if found:
            others[name] = (f, found)
    assert sum(len(found) for _, found in others.values()) == 144
    swap = {f.key: found[0] for f, found in others.values()}
    monkeypatch.setattr(laws, "free_lens", lambda f: swap.get(f.key) or awfs.free_lens(f))
    result = run_laws(families=("free-lens",))
    assert len(result.cases) == len(corpus_funs)
    assert sorted(c.subject for c in result.failures) == sorted(others)
    assert all(c.witness == () for c in result.failures)
    for name, (f, found) in others.items():
        for l in found:
            swap[f.key] = l
            assert not laws._free_lens_is_free(f, (), {}), name


def test_free_lens_family_fails_when_p_is_another_lenss_structure(monkeypatch, corpus_funs):
    # Existence: each square f => g with a lens on g factors through the
    # free lens on f as d = p . E(sq).  Another lawful lens's structure p
    # still gives d . Lf = top and g . d = bottom . Rf, so only the lens
    # morphism check can tell them apart.  In the corpus only g =
    # parallel-pair->interval#1 carries two lawful lenses, so the squares
    # are widened to reach it.
    monkeypatch.setattr(laws, "SQUARE_FIXTURES", laws.SQUARE_FIXTURES + ("parallel-pair",))
    g = dict(corpus_funs)["parallel-pair->interval#1"]
    l0, l1 = enumerate_lens_structures(g)
    assert run_laws(families=("free-lens",)).ok
    real = awfs.lens_to_r_algebra
    other = lambda l: l1 if l.lifts == l0.lifts else l0 if l.lifts == l1.lifts else l
    monkeypatch.setattr(laws, "lens_to_r_algebra", lambda l: real(other(l)))
    result = run_laws(families=("free-lens",))
    assert len(result.cases) == len(corpus_funs)
    assert len(result.failures) == 18
    assert all(c.witness == () for c in result.failures)


def test_free_lens_family_reports_the_first_lens_violation(monkeypatch, capsys, corpus_funs):
    # The family leaves the lens laws to `free_lens`'s own check, so a
    # table that fails them fails exactly its case, with the violation.
    target = identity_functor(CORPUS["interval"])
    name = next(n for n, f in corpus_funs if f == target)
    real = awfs.validate_lens

    def failing(l):
        if l.functor == awfs.e_object(target).rf:
            return ValidationReport.from_violations([("missing-lift", "0", "u")])
        return real(l)

    monkeypatch.setattr(awfs, "validate_lens", failing)
    result = run_laws(families=("free-lens",))
    assert len(result.cases) == len(corpus_funs)
    message = "InternalInvariantError: projection lifting table fails the lens laws: missing-lift 0 u"
    assert [(c.subject, c.witness) for c in result.failures] == [(name, (("error", message),))]
    assert main(["free-lens", "id:interval"]) == 1
    assert "fails the lens laws: missing-lift 0 u" in capsys.readouterr().err
