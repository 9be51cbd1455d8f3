import pytest

from oracles import brute_force_diagonals, elements_rows_eagerly, is_connected, is_isomorphism

from deltalens import awfs, factorization, kernel, laws, lens, search, semimonad
from deltalens.awfs import comonad_data, e_object, mu
from deltalens.fixtures import CORPUS
from deltalens.factorization import (
    CommutingSquare,
    components,
    comprehensive_factorise,
    is_discrete_opfibration,
    is_initial,
    opfibration_lifts,
    orthogonal_lift,
)
from deltalens.kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    InputError,
    comma_to_object,
    commutes,
    compose_functors,
    counit_inclusion,
    identity_functor,
    tag,
    validate_category,
    validate_functor,
)
from deltalens.laws import run_laws
from deltalens.lens import lambda_presentation
from deltalens.semimonad import j_object


def test_identity_is_initial_and_opfibration():
    for c in CORPUS.values():
        f = identity_functor(c)
        assert is_initial(f)
        assert is_discrete_opfibration(f)
        assert is_isomorphism(f)


def test_counit_inclusion_classification():
    iv = CORPUS["interval"]
    iota = counit_inclusion(iv)
    assert not is_initial(iota)
    assert not is_discrete_opfibration(iota)


def test_point_functors_into_interval():
    term, iv = CORPUS["terminal"], CORPUS["interval"]
    at0 = FinFunctor(term, iv, {"*": "0"}, {"1_*": "1_0"})
    at1 = FinFunctor(term, iv, {"*": "1"}, {"1_*": "1_1"})
    assert is_initial(at0)
    assert not is_initial(at1)
    assert is_discrete_opfibration(at1)
    assert not is_discrete_opfibration(at0)


def test_factorisation_laws_on_corpus(corpus_funs):
    for name, fun in corpus_funs:
        parts = comprehensive_factorise(fun)
        assert compose_functors(parts.m, parts.e) == fun, name
        assert is_initial(parts.e), name
        assert is_discrete_opfibration(parts.m), name


def test_factorising_an_extreme_leaves_an_isomorphism(corpus_funs):
    for name, fun in corpus_funs:
        parts = comprehensive_factorise(fun)
        if is_discrete_opfibration(fun):
            assert is_isomorphism(parts.e), name
        if is_initial(fun):
            assert is_isomorphism(parts.m), name


def test_square_boundary_checks():
    iv, wi = CORPUS["interval"], CORPUS["walking-iso"]
    with pytest.raises(InputError):
        CommutingSquare(
            identity_functor(iv),
            identity_functor(wi),
            identity_functor(iv),
            identity_functor(iv),
        )


def test_square_must_commute():
    wi = CORPUS["walking-iso"]
    ident = identity_functor(wi)
    swap = FinFunctor(
        wi, wi,
        {"0": "1", "1": "0"},
        {"1_0": "1_1", "1_1": "1_0", "f": "g", "g": "f"},
    )
    with pytest.raises(InputError):
        CommutingSquare(ident, ident, swap, ident)


# `CommutingSquare` decides every square built from outside.  Inside, a
# square whose equation a structure check or a filter has just decided,
# or whose construction argues it (`j_square` and `e_square` images lie
# over the bottom leg and restrict to Lg . top), is made unchecked by
# `_square_by_construction`.  This test decides each one a full `laws`
# run makes, as it is made, and counts the checked squares, of which the
# run makes none.  `comonad_data` makes one square per build, so it gets
# an empty cache.
def test_squares_made_unchecked_in_a_laws_run_commute(monkeypatch):
    real = factorization._square_by_construction
    made, failed, checked = [0], [], [0]
    real_check = CommutingSquare.__post_init__

    def check(sq):
        checked[0] += 1
        real_check(sq)

    def record(left, right, top, bottom):
        made[0] += 1
        if not commutes(bottom, left, right, top):
            failed.append(made[0])
        return real(left, right, top, bottom)

    for module in (factorization, semimonad, awfs, laws, search):
        monkeypatch.setattr(module, "_square_by_construction", record)
    monkeypatch.setattr(CommutingSquare, "__post_init__", check)
    monkeypatch.setattr(awfs, "comonad_data", kernel.memo_by_key(comonad_data.__wrapped__))
    result = run_laws()
    assert not failed
    assert (made[0], checked[0]) == (24_707, 0)
    assert result.ok


def test_orthogonal_lift_requires_eligible_legs():
    iv = CORPUS["interval"]
    iota = counit_inclusion(iv)
    sq = CommutingSquare(iota, identity_functor(iv), iota, identity_functor(iv))
    with pytest.raises(ContractError):
        orthogonal_lift(sq)


def test_orthogonal_lift_matches_unique_brute_force_diagonal(corpus_sqs):
    checked = 0
    for name, sq in corpus_sqs:
        if not (is_initial(sq.left) and is_discrete_opfibration(sq.right)):
            continue
        if checked >= 60:
            break
        diagonals = brute_force_diagonals(sq)
        assert len(diagonals) == 1, name
        assert orthogonal_lift(sq) == diagonals[0], name
        checked += 1
    assert checked >= 30


def test_class_closure_under_composition(corpus_funs):
    by_dom = {}
    for name, fun in corpus_funs:
        by_dom.setdefault(fun.dom.key, []).append(fun)
    seen = 0
    for _, g in corpus_funs:
        for f in by_dom.get(g.cod.key, ())[:3]:
            comp = compose_functors(f, g)
            if is_initial(f) and is_initial(g):
                assert is_initial(comp)
            if is_discrete_opfibration(f) and is_discrete_opfibration(g):
                assert is_discrete_opfibration(comp)
            seen += 1
    assert seen > 50


def _corpus_and_structure_legs(corpus_funs):
    """Each corpus functor with the structure functors built from it."""
    out = []
    for _, f in corpus_funs:
        jp, ef, parts = j_object(f), e_object(f), comprehensive_factorise(f)
        out += [f, jp.s, jp.t, ef.lf, ef.rf, ef.alpha, counit_inclusion(f.dom), mu(f)]
        out += [comonad_data(f), parts.e, parts.m]
    return out


def _naive_lifts(fun):
    """Every (a, u) with its one lift, by scanning all of dom.out(a) for
    each pair, or None when some pair has no lift or more than one."""
    lifts = {}
    for a in fun.dom.objects:
        for u in fun.cod.out(fun.obj_map[a]):
            ws = [w for w in fun.dom.out(a) if fun.mor_map[w] == u]
            if len(ws) != 1:
                return None
            lifts[(a, u)] = ws[0]
    return lifts


def test_classes_and_lifts_match_comma_categories_and_a_naive_sweep(corpus_funs):
    funs = _corpus_and_structure_legs(corpus_funs)
    assert len(funs) == 1375
    initial = lifted = 0
    for i, fun in enumerate(funs):
        rep = {tag(*p): tag(*r) for p, r in components(fun).items()}
        connected = True
        for b in fun.cod.objects:
            comma = comma_to_object(fun, b)
            connected = connected and is_connected(comma)
            # The classes over b are the components of fun/b, named by their least object.
            for m in comma.morphisms:
                assert rep[comma.src[m]] == rep[comma.tgt[m]], i
            for r in {rep[x] for x in comma.objects}:
                objs = tuple(x for x in comma.objects if rep[x] == r)
                mors = tuple(m for m in comma.morphisms if rep[comma.src[m]] == r)
                assert r == min(objs), i
                assert is_connected(FinCat(objs, mors, comma.src, comma.tgt, {}, {})), i
        assert is_initial(fun) == connected, i
        naive = _naive_lifts(fun)
        assert opfibration_lifts(fun) == naive, i
        assert is_discrete_opfibration(fun) == (naive is not None), i
        initial += connected
        lifted += naive is not None
    assert (initial, lifted) == (864, 535)


def test_coslice_is_the_middle_of_the_counit_factorisation(corpus_funs):
    # Jf is the middle of f . epsilon, whose domain is discrete, so each pair
    # (a, u) is a class of its own and names the middle object over tgt u.
    for name, f in corpus_funs:
        jf = j_object(f)
        parts = comprehensive_factorise(compose_functors(f, counit_inclusion(f.dom)))
        iso = FinFunctor(
            jf.j,
            parts.mid,
            {x: tag(f.cod.tgt[u], x) for (a, u), x in jf.obj_id.items()},
            {m: tag(v, tag(a, u)) for (a, u), row in jf.mor_id.items() for v, m in row.items()},
        )
        assert validate_functor(iso).ok, name
        assert is_isomorphism(iso), name
        assert compose_functors(parts.m, iso) == jf.t, name
        assert compose_functors(iso, jf.s) == parts.e, name


def test_each_category_of_elements_lifts_along_its_rows(monkeypatch, corpus_funs, corpus_lens_list):
    # J(f)'s t, the factorisation's m and the lambda presentation's over are
    # each the projection that `kernel.elements` returns, and its unique lift
    # of v at the object of a point p is the morphism in p's row at v.  Each
    # domain is marked lawful unchecked, and its full report agrees.
    built = []

    def recording(*args):
        built.append(kernel.elements(*args))
        return built[-1]

    for module in (semimonad, factorization, lens):
        monkeypatch.setattr(module, "elements", recording)
    funs = [f for _, f in corpus_funs]
    projections = [j_object.__wrapped__(f).t for f in funs]
    projections += [comprehensive_factorise(f).m for f in funs]
    projections += [lambda_presentation(l).over for _, l in corpus_lens_list]
    assert len(built) == len(projections) == 2 * 125 + 46
    for projection, (built_projection, obj_id, mor_id) in zip(projections, built):
        assert projection is built_projection
        assert vars(projection.dom)["lawful"] is True
        assert validate_category(projection.dom).ok
        assert opfibration_lifts(projection) == {
            (obj_id[p], v): m for p, row in mor_id.items() for v, m in row.items()
        }


def test_elements_rows_read_one_at_a_time_or_whole_equal_the_eager_build(
    monkeypatch, corpus_funs, corpus_lens_list, scope
):
    # Each category of elements is checked as `kernel.elements` returns it,
    # before its builder reads it: a fresh table has built no row.  Every
    # other row is read first, then the whole table, which builds the rest;
    # both equal the rows built at once from the projection, and the rows
    # read first are the ones the table keeps.
    checked, subject = [], [None]

    def checking(*args):
        out = kernel.elements(*args)
        c, eager = out[0].dom, elements_rows_eagerly(out[0])
        assert "after" not in vars(c), subject[0]
        first = {m: c.row(m) for m in c.morphisms[::2]}
        assert first == {m: eager[m] for m in first}, subject[0]
        assert c.after == eager, subject[0]
        assert all(c.after[m] is row for m, row in first.items()), subject[0]
        assert c.row("no-such-morphism") == {}, subject[0]
        checked.append(c)
        return out

    for module in (semimonad, factorization, lens):
        monkeypatch.setattr(module, "elements", checking)
    towers = laws._tower_inputs(scope)
    for subject[0], f in corpus_funs + towers:
        j_object.__wrapped__(j_object.__wrapped__(f).t)  # J(f), then J(t of f)
    for subject[0], f in corpus_funs:
        comprehensive_factorise(f)
    for subject[0], l in corpus_lens_list:
        lambda_presentation(l)
    assert (len(corpus_funs), len(towers), len(corpus_lens_list)) == (125, 8, 46)
    assert len(checked) == 2 * (125 + 8) + 125 + 46
