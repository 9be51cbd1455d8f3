import dataclasses
import hashlib
import json

import pytest

from oracles import (
    EfId,
    EfKindI,
    EfKindII,
    _kind1,
    _kind2,
    brute_force_diagonals,
    compare_pushout,
    compose_ef,
    ef_kinds,
    ef_mor_id,
    elements_rows_eagerly,
    glued_rows_eagerly,
)

from deltalens.fixtures import CORPUS
from deltalens.factorization import (
    CommutingSquare,
    is_discrete_opfibration,
    is_initial,
    orthogonal_lift,
)
from deltalens.kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    GuardExceededError,
    InputError,
    comma_to_object,
    commutes,
    compose_functors,
    counit_inclusion,
    enumerate_functors,
    identity_functor,
    tag,
    validate_category,
    validate_functor,
)
from deltalens.lens import (
    DeltaLens,
    LiftingTable,
    compose_lenses,
    identity_lens,
    lens_pairs,
    validate_lens,
    validate_lens_morphism,
)
from deltalens.search import enumerate_l_coalgebras, enumerate_r_algebra_structures
from deltalens import awfs, cli, laws, semimonad
from deltalens.cli import main
from deltalens.laws import run_laws
from deltalens.serialization import (
    canonical_dumps,
    category_from_json,
    category_to_json,
    functor_to_json,
)
from deltalens.semimonad import (
    JrAlgebra,
    _collapse,
    j_object,
    j_square,
    jr_from_lens,
    nu,
    validate_jr_algebra,
    validate_semimonad,
)
from deltalens.awfs import (
    LCoalgebra,
    RAlgebra,
    cofree_coalgebra,
    comonad_data,
    copair,
    e_object,
    e_square,
    free_lens,
    jr_from_r_algebra,
    lens_to_r_algebra,
    lift_against_coalgebra,
    mu,
    r_algebra_from_jr,
    r_algebra_to_lens,
    validate_comonad,
    validate_distributive_law,
    validate_l_coalgebra,
    validate_monad,
    validate_r_algebra,
)


def test_interval_identity_normal_form_is_pinned():
    ef = e_object(identity_functor(CORPUS["interval"]))
    assert sorted(ef.e.objects) == ["(0,1_0)", "(0,u)", "(1,1_1)"]
    assert sorted(ef.e.morphisms) == [
        "(0,1_0,1_0)",
        "(0,1_0,u)",
        "(0,u,1_1)",
        "(1,1_1,1_1)",
        "(I,1_0,1_0,u,1_1)",
    ]
    assert ef.rf.mor_map["(I,1_0,1_0,u,1_1)"] == "u"
    assert ef.rf.mor_map["(0,1_0,u)"] == "u"


def test_factorisation_through_the_normal_form(corpus_funs):
    for name, fun in corpus_funs[:40]:
        ef = e_object(fun)
        assert compose_functors(ef.rf, ef.lf) == fun, name
        assert is_initial(ef.lf), name
        assert len(set(ef.alpha.obj_map.values())) == len(ef.e.objects), name


def test_normal_form_matches_word_closure_sample():
    iv, wr, wi = CORPUS["interval"], CORPUS["walking-retraction"], CORPUS["walking-iso"]
    sample = [
        identity_functor(iv),
        counit_inclusion(iv),
        identity_functor(wr),
        identity_functor(wi),
        FinFunctor(iv, wr, {"0": "0", "1": "1"},
                   {"1_0": "1_0", "1_1": "1_1", "u": "s"}),
    ]
    for fun in sample:
        assert compare_pushout(fun, e_object(fun)) == []


def test_free_lens_laws_and_opfibration_census():
    iv = CORPUS["interval"]
    l_id = free_lens(identity_functor(iv))
    assert validate_lens(l_id).ok
    assert not is_discrete_opfibration(l_id.functor)
    l_iota = free_lens(counit_inclusion(iv))
    assert validate_lens(l_iota).ok
    assert is_discrete_opfibration(l_iota.functor)
    ef = e_object(counit_inclusion(iv))
    assert len(ef.e.objects) == 3 and len(ef.e.morphisms) == 4


def test_free_lens_factorisations_are_unique_under_the_guard(corpus_sqs, corpus_lens_list):
    # For a square f => g and a lens on g, the `free-lens` family checks
    # that d = p . E(sq) is a lens morphism from the free lens on f with
    # d . Lf = top and g . d = bottom . Rf.  Here every functor out of Ef
    # is searched, where the guard allows, and d is the only one.
    lenses_on: dict[tuple, list[DeltaLens]] = {}
    for _, l in corpus_lens_list:
        lenses_on.setdefault(l.functor.key, []).append(l)
    within = over = 0
    for _, sq in corpus_sqs:
        f, g = sq.left, sq.right
        ef = e_object(f)
        for l in lenses_on.get(g.key, ()):
            lifting = CommutingSquare(ef.lf, g, sq.top, compose_functors(sq.bottom, ef.rf))
            try:
                diagonals = brute_force_diagonals(lifting)
            except GuardExceededError:
                over += 1
                continue
            within += 1
            free = free_lens(f)
            found = [
                d
                for d in diagonals
                if validate_lens_morphism(CommutingSquare(ef.rf, g, d, sq.bottom), free, l).ok
            ]
            p = lens_to_r_algebra(l).structure
            assert found == [compose_functors(p, e_square(sq))]
    assert (within, over) == (638, 699)


def test_monad_laws_on_sample(corpus_funs):
    for name, fun in corpus_funs[:20]:
        assert validate_monad(fun).ok, name


# alpha: J => R is a morphism of semi-monads; this is its multiplication
# half: mu(f) . alpha_{Rf} . J(alpha_f) == alpha_f . nu(f) as functors
# J(t of f) -> Ef, with J(alpha_f) the coslice image of alpha_f as a
# square over the identity of the codomain.
def test_alpha_carries_nu_to_mu(corpus_funs):
    assert len(corpus_funs) == 125
    for name, f in corpus_funs:
        jf, ef = j_object(f), e_object(f)
        j_alpha = j_square(CommutingSquare(jf.t, ef.rf, ef.alpha, identity_functor(f.cod)))
        via_mu = compose_functors(mu(f), compose_functors(e_object(ef.rf).alpha, j_alpha))
        assert via_mu == compose_functors(ef.alpha, nu(f)), name


def _retarget_one_morphism(good):
    """One non-identity morphism sent to an identity, which breaks
    functoriality."""
    mor_map = dict(good.mor_map)
    k = next(m for m in mor_map if not good.dom.is_identity(m))
    mor_map[k] = good.cod.identity[good.cod.tgt[mor_map[k]]]
    return FinFunctor(good.dom, good.cod, dict(good.obj_map), mor_map)


def _retargeted_collapse(upper, base):
    leg = _retarget_one_morphism(FinFunctor(upper.j, base.j, *_collapse(upper, base)))
    return leg.obj_map, leg.mor_map


# The witnesses of `nu-functor`, `mu-functor` and `delta-functor` on the
# interval identity when the construction's leg is not a functor: the
# first arrow whose image has the wrong source.
NOT_A_FUNCTOR = {
    "nu": ("nu-functor", "src-preservation", "(\\(0\\,1_0\\),1_0,u)"),
    "mu": ("mu-functor", "src-preservation", "(\\(0\\,1_0\\),1_0,u)"),
    "comonad_data": ("delta-functor", "src-preservation", "(0,1_0,u)"),
}


def _constant(good):
    """A functor that sends everything to one object: functorial, but
    not over the base."""
    x = good.cod.objects[-1]
    return FinFunctor(
        good.dom,
        good.cod,
        {o: x for o in good.dom.objects},
        {m: good.cod.identity[x] for m in good.dom.morphisms},
    )


@pytest.mark.parametrize(
    "module, construction, validate, structure",
    [
        (semimonad, "nu", validate_semimonad, "nu-over-base"),
        (awfs, "mu", validate_monad, "rf-after-mu"),
        (awfs, "comonad_data", validate_comonad, "delta-square"),
    ],
    ids=["semimonad", "monad", "comonad"],
)
def test_a_structure_off_the_base_is_the_whole_report(
    monkeypatch, corpus_sqs, module, construction, validate, structure
):
    # The construction is replaced for the functor under test only; its
    # failed structure check is the one violation, and the laws and the
    # naturality squares are skipped.
    fun = identity_functor(CORPUS["interval"])
    squares = tuple(sq for _, sq in corpus_sqs if sq.left.key == fun.key)
    assert squares
    real = getattr(module, construction)
    bad = _constant(real(fun))
    monkeypatch.setattr(module, construction, lambda f: bad if f.key == fun.key else real(f))
    assert validate(fun, squares=squares).violations == ((structure,),)


def _retargeted_copair(*args):
    return _retarget_one_morphism(copair(*args))


def _no_square(sq):
    raise AssertionError("a square was checked against a structure map that is not a functor")


_NOT_A_FUNCTOR_CASES = [
    (semimonad, "nu", validate_semimonad, "_collapse", _retargeted_collapse, "j_square"),
    (awfs, "mu", validate_monad, "_collapse", _retargeted_collapse, "e_square"),
    (awfs, "comonad_data", validate_comonad, "copair", _retargeted_copair, "e_square"),
]


@pytest.mark.parametrize(
    "module, construction, validate, leg, corrupt, on_squares, with_squares",
    [(*case, True) for case in _NOT_A_FUNCTOR_CASES] + [(*_NOT_A_FUNCTOR_CASES[1], False)],
    ids=["not-a-functor-semimonad", "not-a-functor-monad", "not-a-functor-comonad",
         "not-a-functor-monad-no-squares"],
)
def test_naturality_is_checked_against_the_trusted_multiplication(
    monkeypatch, corpus_sqs, module, construction, validate, leg, corrupt, on_squares, with_squares
):
    # The construction is the only multiplication the validator checks
    # squares against, and the validator checks it first: built uncached
    # with a leg that is not a functor, its functor check is the whole
    # report, with or without squares, and no square reaches the
    # construction on squares.  The unpatched run warms every other
    # construction the check needs, E(f) and E(lf of f) among them, whose
    # projections are copairings too.
    fun = identity_functor(CORPUS["interval"])
    squares = tuple(sq for _, sq in corpus_sqs if sq.left.key == fun.key)
    assert squares
    squares = squares if with_squares else ()
    assert validate(fun, squares=squares).ok
    monkeypatch.setattr(module, construction, getattr(module, construction).__wrapped__)
    monkeypatch.setattr(module, leg, corrupt)
    monkeypatch.setattr(module, on_squares, _no_square)
    assert validate(fun, squares=squares).violations == (NOT_A_FUNCTOR[construction],)


def _delta(f):
    """The coslice map of the comultiplication at f, by orthogonal lifting."""
    ef = e_object(f)
    el = e_object(ef.lf)
    return orthogonal_lift(CommutingSquare(ef.j.s, el.j.t, el.j.s, ef.alpha))


def test_comultiplication_explicit_formula(corpus_funs):
    # delta sends (a, u) to (a, c_u), c_u the coslice arrow (a, 1) -> (a, u)
    # of Ef, and the arrow v at (a, u), an arrow m of Ef, to m at (a, c_u).
    for name, fun in corpus_funs:
        delta, B = _delta(fun), fun.cod
        for a in fun.dom.objects:
            fa = fun.obj_map[a]
            for u in B.out(fa):
                c_u = ef_mor_id(fun, _kind2(fun, a, B.identity[fa], u))
                assert delta.obj_map[tag(a, u)] == tag(a, c_u), name
                for v in B.out(B.tgt[u]):
                    m = ef_mor_id(fun, _kind2(fun, a, u, v))
                    assert delta.mor_map[tag(a, u, v)] == tag(a, c_u, m), name


def test_comultiplication_coslice_leg_is_the_orthogonal_lift(corpus_funs, scope):
    # `comonad_data` reads delta off J(lf of f) by lookup; its restriction
    # along alpha, the identity on ids, is the diagonal the lifting solver
    # finds, as whole maps.  The subjects hold every functor the `tower`
    # family splits.
    for name, f in _glued_subjects(corpus_funs, scope):
        c, delta = comonad_data(f), _delta(f)
        assert c.obj_map == delta.obj_map, name
        assert {m: c.mor_map[m] for m in delta.dom.morphisms} == delta.mor_map, name


def test_comonad_laws_on_sample(corpus_funs):
    for name, fun in corpus_funs[:20]:
        assert validate_comonad(fun).ok, name


def test_corrupted_comultiplication_is_reported(monkeypatch):
    # comonad_data is built unchecked, the copairing of L(lf) with delta;
    # validate_comonad's first structure check names it.  E(f) and
    # E(lf of f), whose projections are copairings too, are built before
    # copair is patched.
    fun = identity_functor(CORPUS["interval"])
    comonad_data(fun)
    monkeypatch.setattr(awfs, "comonad_data", comonad_data.__wrapped__)
    monkeypatch.setattr(awfs, "copair", _retargeted_copair)
    assert validate_comonad(fun).violations == (NOT_A_FUNCTOR["comonad_data"],)


def test_distributive_law_on_sample(corpus_funs):
    for name, fun in corpus_funs[:15]:
        assert validate_distributive_law(fun).ok, name


def _relabelled(fun: FinFunctor, prefix: str) -> FinFunctor:
    """fun with every identifier prefixed, so that no cache holds a
    construction on it yet.  Its domain and codomain must be one category."""
    c, r = fun.dom, lambda x: prefix + x
    cat = FinCat(
        tuple(map(r, c.objects)),
        tuple(map(r, c.morphisms)),
        {r(m): r(x) for m, x in c.src.items()},
        {r(m): r(x) for m, x in c.tgt.items()},
        {r(x): r(m) for x, m in c.identity.items()},
        {r(f): {r(g): r(gf) for g, gf in row.items()} for f, row in c.after.items()},
    )
    return FinFunctor(
        cat,
        cat,
        {r(x): r(y) for x, y in fun.obj_map.items()},
        {r(m): r(n) for m, n in fun.mor_map.items()},
    )


def _glued_subjects(corpus_funs, scope) -> list[tuple[str, FinFunctor]]:
    """The corpus functors with the projection and the domain inclusion of
    their glued categories, and the tower inputs with those legs and the
    legs' own legs."""

    def with_legs(name, f):
        ef = e_object(f)
        return [(name, f), (f"rf {name}", ef.rf), (f"lf {name}", ef.lf)]

    out = [leg for name, f in corpus_funs for leg in with_legs(name, f)]
    for name, f in laws._tower_inputs(scope):
        out += [leg for n, g in with_legs(name, f) for leg in with_legs(n, g)]
    return out


def test_glued_rows_read_one_at_a_time_or_whole_equal_the_eager_build(corpus_funs, scope):
    # A fresh E(f) has built no row.  Every other row is read first, then
    # the whole table, which builds the rest; both equal the rows built at
    # once, and the rows read first are the ones the table keeps.
    for name, f in _glued_subjects(corpus_funs, scope):
        ef = e_object.__wrapped__(f)
        e, eager = ef.e, glued_rows_eagerly(ef)
        assert "after" not in vars(e), name
        first = {m: e.row(m) for m in e.morphisms[::2]}
        assert first == {m: eager.get(m, {}) for m in first}, name
        assert e.after == eager, name
        assert all(e.after[m] is row for m, row in first.items() if row), name
        assert e.row("no-such-morphism") == {}, name


# The rows of every table are a dict subclass whose one override,
# `__missing__`, builds a glued or coslice row on its first read through `FinCat.row`.
# `after` is handed out only once every row is built, so every method of
# dict that reads, and the C fast paths of `dict(...)`, `{**...}` and
# `json`, see the same rows as on the table built at once.
_NOT_READS = {  # writes, which no table takes, comparisons dict leaves to
    # others, and class-level attributes
    "__delitem__", "__ior__", "__setitem__", "clear", "pop", "popitem", "setdefault", "update",
    "__ge__", "__gt__", "__le__", "__lt__",
    "__class_getitem__", "__doc__", "__getattribute__", "__hash__", "__init__", "__new__",
    "__sizeof__", "fromkeys",
}


def _lazy_table(kind, f):
    """A fresh E(f) or J(f) with the rows built at once by its oracle."""
    if kind == "E":
        ef = e_object.__wrapped__(f)
        return ef.e, glued_rows_eagerly(ef)
    jp = j_object.__wrapped__(f)
    return jp.j, elements_rows_eagerly(jp.t)


@pytest.mark.parametrize("kind", ["E", "J"])
def test_no_dict_method_sees_a_lazy_row_missing(corpus_funs, kind):
    c, eager = _lazy_table(kind, dict(corpus_funs)["walking-iso->walking-iso#1"])
    ms = list(c.morphisms)
    reads = {
        "__contains__": lambda t: [m in t for m in ms],
        "__eq__": lambda t: t == eager,
        "__getitem__": lambda t: [t[m] for m in ms],
        "__iter__": sorted,
        "__len__": len,
        "__ne__": lambda t: t != eager,
        "__or__": lambda t: t | {},
        "__repr__": lambda t: sorted(repr(t)),
        "__reversed__": lambda t: sorted(reversed(t)),
        "__ror__": lambda t: {} | t,
        "copy": lambda t: t.copy(),
        "get": lambda t: [t.get(m) for m in ms],
        "items": lambda t: sorted(t.items()),
        "keys": lambda t: sorted(t.keys()),
        "values": lambda t: sorted(json.dumps(row, sort_keys=True) for row in t.values()),
    }
    assert set(vars(dict)) == set(reads) | _NOT_READS
    reads.update({
        "dict(...)": dict,
        "{**...}": lambda t: {**t},
        "json": lambda t: json.dumps(t, sort_keys=True),
    })
    for m in ms[::3]:
        c.row(m)
    for name, read in reads.items():
        assert read(c.after) == read(eager), name
    assert c.row("no-such-morphism") == {} and "no-such-morphism" not in c.after


def test_equal_construction_keys_mean_equal_tables(corpus_funs, scope):
    # E(f) is keyed by A, the object map and the part of the codomain
    # reached from its image, so functors that differ only in their
    # morphism maps, or in their codomains away from the image, get
    # distinct glued categories under one key; their tables must be equal.
    by_key: dict[tuple, dict[int, tuple[str, FinCat]]] = {}
    for name, f in _glued_subjects(corpus_funs, scope):
        e = e_object(f).e
        objects = tuple(map(f.obj_map.__getitem__, f.dom.objects))
        assert vars(e)["key"] == ("E", f.dom.key, objects, awfs._reached_key(f)), name
        by_key.setdefault(e.key, {})[id(e)] = (name, e)
    shared = [list(es.values()) for es in by_key.values() if len(es) > 1]
    for (first, e0), *rest in shared:
        for name, e in rest:
            assert e == e0, (first, name)
    assert (len(by_key), len(shared)) == (315, 30)


def test_glued_keys_read_the_codomain_only_where_it_is_reached():
    # The object 1 picked in `interval` and in `parallel-pair` reaches only
    # its identity, so the two glued categories share a key and a table;
    # the one object picked in `idempotent-monoid` and in Z/2 on the same
    # ids reaches the same morphisms, composed apart, so their keys differ.
    term, im = CORPUS["terminal"], CORPUS["idempotent-monoid"]
    z2 = dataclasses.replace(im, after={"1_*": {"1_*": "1_*", "e": "e"}, "e": {"1_*": "e", "e": "1_*"}})
    point = lambda c, x: FinFunctor(term, c, {"*": x}, {"1_*": c.identity[x]})
    at_1 = [e_object(point(CORPUS[name], "1")).e for name in ("interval", "parallel-pair")]
    assert at_1[0] is not at_1[1] and at_1[0].key == at_1[1].key and at_1[0] == at_1[1]
    monoids = [e_object(point(c, "*")).e for c in (im, z2)]
    assert monoids[0].key != monoids[1].key and monoids[0] != monoids[1]


def test_verifying_a_tower_copies_no_table_into_a_key(corpus_funs):
    # Initiality and discrete opfibrations are decided on the tables, so
    # building and verifying J(f) leaves its category without a cache key;
    # only a construction cached on a functor out of or into a category
    # keys it.  E(f) is keyed by its inputs when it is built, and a glued
    # input enters the key by its own key, not by its table.
    wi = CORPUS["walking-iso"]
    f = _relabelled(dict(corpus_funs)["walking-iso->walking-iso#1"], "fresh.")
    assert f.dom == f.cod != wi
    ef = e_object(f)
    assert vars(ef.e)["key"][:2] == ("E", f.dom.key)
    assert "key" not in vars(ef.j.j)
    assert validate_distributive_law(f).ok
    el = e_object(ef.lf)
    leaf = e_object(el.rf)
    assert "key" not in vars(ef.j.j)
    assert vars(el.e)["key"][3] is vars(ef.e)["key"]
    assert vars(leaf.e)["key"][:2] == ("E", el.e.key)
    assert "key" not in vars(leaf.j.j)


def test_algebra_structures_round_trip():
    wr = CORPUS["walking-retraction"]
    l = identity_lens(wr)
    jr = jr_from_lens(l)
    r_alg = r_algebra_from_jr(jr)
    assert validate_r_algebra(r_alg).ok
    assert jr_from_r_algebra(r_alg).structure == jr.structure
    assert r_algebra_to_lens(lens_to_r_algebra(l)).lifts == l.lifts


def test_constant_structure_map_fails_algebra_laws():
    iv, term = CORPUS["interval"], CORPUS["terminal"]
    bang = FinFunctor(
        iv, term,
        {"0": "*", "1": "*"},
        {"1_0": "1_*", "1_1": "1_*", "u": "1_*"},
    )
    ef = e_object(bang)
    const0 = FinFunctor(
        ef.e, iv,
        {x: "0" for x in ef.e.objects},
        {m: "1_0" for m in ef.e.morphisms},
    )
    report = validate_r_algebra(RAlgebra(bang, const0))
    assert not report.ok
    assert ("unit",) in report.violations


def test_copair_requires_matching_restrictions():
    iv = CORPUS["interval"]
    fun = identity_functor(iv)
    ef = e_object(fun)
    wrong = FinFunctor(
        fun.dom, ef.e,
        {"0": ef.lf.obj_map["1"], "1": ef.lf.obj_map["0"]},
        {m: ef.e.identity[ef.lf.obj_map["1" if iv.src[m] == "0" else "0"]]
         for m in iv.morphisms if iv.is_identity(m)} | {"u": ef.e.identity[ef.lf.obj_map["0"]]},
    )
    with pytest.raises(ContractError, match="disagree on placed objects"):
        copair(ef, wrong, ef.alpha)


def test_cofree_coalgebras_are_lawful(corpus_funs):
    for name, fun in corpus_funs[:20]:
        coalg = cofree_coalgebra(fun)
        assert validate_l_coalgebra(coalg).ok, name


def test_tampered_coalgebra_structure_is_reported():
    fun = identity_functor(CORPUS["interval"])
    coalg = cofree_coalgebra(fun)
    el = e_object(coalg.functor)
    obj_map = dict(coalg.structure.obj_map)
    ks = [x for x in obj_map if obj_map[x] != el.lf.obj_map.get(x)]
    x = ks[0]
    other = next(y for y in el.e.objects if y != obj_map[x])
    structure = FinFunctor(
        coalg.structure.dom, coalg.structure.cod,
        {**obj_map, x: other},
        dict(coalg.structure.mor_map),
    )
    report = validate_l_coalgebra(LCoalgebra(coalg.functor, structure))
    assert not report.ok


def test_identity_carries_exactly_one_coalgebra():
    iv = CORPUS["interval"]
    found = enumerate_l_coalgebras(identity_functor(iv), 10**6)
    assert len(found) == 1
    assert validate_l_coalgebra(found[0]).ok


def test_lifting_solves_squares(corpus_funs, corpus_lens_list):
    lenses = {l.functor.key: (n, l) for n, l in corpus_lens_list}
    solved = 0
    for name, fun in corpus_funs:
        if fun.key not in lenses:
            continue
        if solved >= 8:
            break
        _, lens = lenses[fun.key]
        coalg = cofree_coalgebra(fun)
        ef = e_object(fun)
        sq = CommutingSquare(ef.lf, fun, identity_functor(fun.dom), ef.rf)
        d = lift_against_coalgebra(sq, coalg, lens)
        assert compose_functors(d, ef.lf) == sq.top
        assert compose_functors(fun, d) == sq.bottom
        solved += 1
    assert solved >= 4


def test_lifting_reproduces_algebra_structure(corpus_lens_list):
    for name, l in corpus_lens_list[:15]:
        g = l.functor
        ef = e_object(g)
        sq = CommutingSquare(ef.lf, g, identity_functor(g.dom), ef.rf)
        d = lift_against_coalgebra(sq, cofree_coalgebra(g), l)
        assert d == lens_to_r_algebra(l).structure, name


def test_iterated_lifting_matches_lens_composition(corpus_lens_list):
    pairs = [
        (l1, l2)
        for _, l1 in corpus_lens_list
        for _, l2 in corpus_lens_list
        if l1.functor.cod.key == l2.functor.dom.key
    ]
    assert pairs
    for l1, l2 in pairs[:10]:
        comp = compose_lenses(l1, l2)
        gf = comp.functor
        ef = e_object(gf)
        coalg = cofree_coalgebra(gf)
        sq = CommutingSquare(ef.lf, gf, identity_functor(gf.dom), ef.rf)
        direct = lift_against_coalgebra(sq, coalg, comp)
        halfway = lift_against_coalgebra(
            CommutingSquare(
                ef.lf, l2.functor,
                compose_functors(l1.functor, sq.top), sq.bottom,
            ),
            coalg, l2,
        )
        two_step = lift_against_coalgebra(
            CommutingSquare(ef.lf, l1.functor, sq.top, halfway),
            coalg, l1,
        )
        assert two_step == direct


def test_chosen_lifts_are_lifts_against_the_generic_coalgebra(corpus_lens_list):
    # The point 0: 1 -> 2 carries one L-coalgebra and the point 1 none; a square
    # from 0 into a lens picks a and v out of f a, and its diagonal sends u to
    # the chosen lift of v at a.
    term, iv = CORPUS["terminal"], CORPUS["interval"]
    at0 = FinFunctor(term, iv, {"*": "0"}, {"1_*": "1_0"})
    at1 = FinFunctor(term, iv, {"*": "1"}, {"1_*": "1_1"})
    assert enumerate_l_coalgebras(at1) == []
    (generic,) = enumerate_l_coalgebras(at0)
    assert len(corpus_lens_list) == 46
    cases = 0
    for name, l in corpus_lens_list:
        f = l.functor
        A, B = f.dom, f.cod
        for a, v in lens_pairs(f):
            fa, b = f.obj_map[a], B.tgt[v]
            top = FinFunctor(term, A, {"*": a}, {"1_*": A.identity[a]})
            bottom = FinFunctor(
                iv, B, {"0": fa, "1": b}, {"1_0": B.identity[fa], "1_1": B.identity[b], "u": v}
            )
            d = lift_against_coalgebra(CommutingSquare(at0, f, top, bottom), generic, l)
            assert d.mor_map["u"] == l.lift(a, v), (name, a, v)
            cases += 1
    assert cases == 96


def test_lift_boundary_mismatch_is_an_error():
    iv, wi = CORPUS["interval"], CORPUS["walking-iso"]
    fun = identity_functor(iv)
    coalg = cofree_coalgebra(fun)
    lens = identity_lens(wi)
    ef = e_object(fun)
    with pytest.raises(InputError):
        sq = CommutingSquare(ef.lf, fun, identity_functor(iv), ef.rf)
        lift_against_coalgebra(sq, coalg, lens)


def test_lift_rejects_an_unlawful_lens():
    # Every lift lies over the identity of the point, so L1 holds, but the
    # lifts of the identities are the two halves of the iso, not identities
    # (L2), and they do not compose to themselves (L3).
    wi, term = CORPUS["walking-iso"], CORPUS["terminal"]
    bang = FinFunctor(wi, term, {"0": "*", "1": "*"}, {m: "1_*" for m in wi.morphisms})
    lens = DeltaLens(bang, LiftingTable({("0", "1_*"): "f", ("1", "1_*"): "g"}))
    assert [v[0] for v in validate_lens(lens).violations] == ["L2", "L2", "L3", "L3"]
    ef = e_object(bang)
    sq = CommutingSquare(ef.lf, bang, identity_functor(wi), ef.rf)
    with pytest.raises(ContractError, match="^lifting table fails the lens laws$"):
        lift_against_coalgebra(sq, cofree_coalgebra(bang), lens)


def test_r_algebra_structure_enumeration_matches_lens_count():
    pp, iv = CORPUS["parallel-pair"], CORPUS["interval"]
    fun = FinFunctor(
        pp, iv,
        {"0": "0", "1": "1"},
        {"1_0": "1_0", "1_1": "1_1", "s": "u", "t": "u"},
    )
    algebras = enumerate_r_algebra_structures(fun, 10**6)
    assert len(algebras) == 2


def _census(funs, ends, make, validate):
    """How many corpus functors exceed the guard on the candidates
    ends(f) -> (dom, cod), and how many candidates give each list of
    violation names."""
    over, tally = 0, {}
    for f in funs:
        try:
            candidates = enumerate_functors(*ends(f))
        except GuardExceededError:
            over += 1
            continue
        for q in candidates:
            names = tuple(v[0] for v in validate(make(f, q)).violations)
            tally[names] = tally.get(names, 0) + 1
    return over, tally


def test_structure_validator_census(corpus_funs):
    # Every functor of the right type, under the default guard, is a
    # candidate structure for each corpus functor; the reports pin which
    # checks each validator runs and which failures it reports together.
    funs = [f for _, f in corpus_funs]
    assert len(funs) == 125
    assert _census(
        funs, lambda f: (f.cod, e_object(f).e), LCoalgebra, validate_l_coalgebra
    ) == (0, {(): 14, ("section",): 15, ("unit-square",): 155, ("section", "unit-square"): 625})
    assert _census(
        funs, lambda f: (j_object(f).j, f.dom), JrAlgebra, validate_jr_algebra
    ) == (11, {(): 45, ("strictness",): 926, ("unit",): 50, ("unit", "multiplication"): 25})
    assert _census(
        funs, lambda f: (e_object(f).e, f.dom), RAlgebra, validate_r_algebra
    ) == (38, {(): 43, ("strictness",): 417, ("unit",): 67, ("unit", "multiplication"): 19})


def test_normal_forms_name_distinct_morphisms(corpus_funs):
    # `ef_kinds` lists the normal forms from f alone and raises if two of
    # them share an id, so Ef names each of its morphisms by exactly one
    # normal form when their ids are Ef's.
    funs = [f for _, f in corpus_funs]
    assert len(funs) == 125
    for f in funs + [e_object(f).rf for f in funs]:
        ef, kinds = e_object(f), ef_kinds(f)
        assert len(kinds) == len(ef.e.morphisms)
        assert set(kinds) == set(ef.e.morphisms)


def test_crossings_and_coslice_inclusion_hold_by_construction(corpus_funs):
    # `copair` reads each crossing's coslice ids from `crossings`; here
    # they are derived from its normal form.  Alpha is the identity on ids
    # and Ef has the coslice's objects, so alpha is bijective on objects
    # and faithful without a check.
    funs = [f for _, f in corpus_funs]
    for f in funs + [e_object(f).rf for f in funs]:
        A, B, ef = f.dom, f.cod, e_object(f)
        expected = [
            (
                m,
                ef.j.mor_id[(A.src[k.w], k.u1)][k.v],
                k.w,
                ef.j.mor_id[(A.tgt[k.w], B.identity[f.obj_map[A.tgt[k.w]]])][k.u2],
            )
            for m, k in ef_kinds(f).items()
            if isinstance(k, EfKindI)
        ]
        assert list(ef.crossings) == expected
        assert ef.alpha.obj_map == {x: x for x in ef.j.j.objects}
        assert ef.alpha.mor_map == {m: m for m in ef.j.j.morphisms}
        assert ef.e.objects == ef.j.j.objects


def _constructions_case(monkeypatch, f):
    """The `constructions` law case on f, with J(f) and E(f) built afresh, so
    that a fault patched into their construction reaches them."""
    monkeypatch.setattr(awfs, "j_object", j_object.__wrapped__)
    monkeypatch.setattr(laws, "e_object", e_object.__wrapped__)
    [case] = laws._guarded_cases("constructions", [("f", f)], laws._constructions_report)
    return case


def test_a_wrong_base_image_fails_the_projection_check(monkeypatch, corpus_funs):
    # A crossing m that leaves along a non-identity coslice morphism is
    # that morphism after the crossing that leaves at (a2, 1), so Rf stops
    # preserving that composite when m alone gets another base morphism
    # with the same ends.
    def fault(f):
        ef = e_object(f)
        B = f.cod
        for m, _, _, exit_ in ef.crossings:
            if not B.is_identity(ef.j.t.mor_map[exit_]):
                right = ef.rf.mor_map[m]
                for b in B.hom(B.src[right], B.tgt[right]):
                    if b != right:
                        return m, b
        return None

    f, (m, wrong) = next((f, hit) for _, f in corpus_funs if (hit := fault(f)))
    real = awfs.copair

    def faulty(pres, on_a, on_j):
        out = real(pres, on_a, on_j)
        return dataclasses.replace(out, mor_map={**out.mor_map, m: wrong})

    monkeypatch.setattr(awfs, "copair", faulty)
    assert _constructions_case(monkeypatch, f).witness == (("rf-functor",),)


def test_a_projection_that_forgets_the_functor_fails_the_constructions_case(monkeypatch):
    # Rf is replaced by the constant functor at one object of the base: a
    # functor, so only rf . lf = f, which the unit and counit squares of
    # the (co)monad validators are made on unchecked, names it.
    real = awfs.copair

    def constant(pres, on_a, on_j):
        out = real(pres, on_a, on_j)
        if on_a is not pres.functor:
            return out
        B, x = out.cod, out.cod.objects[0]
        return FinFunctor(out.dom, B, dict.fromkeys(out.obj_map, x), dict.fromkeys(out.mor_map, B.identity[x]))

    monkeypatch.setattr(awfs, "copair", constant)
    assert _constructions_case(monkeypatch, identity_functor(CORPUS["interval"])).witness == (("rf-after-lf",),)


def _wrong_composite(monkeypatch):
    """Replace one entry of the rows that `e_object` builds for the identity
    on walking-iso by its first factor, which has the wrong target."""
    g, f = "(0,1_0,f)", "(0,f,g)"
    real = awfs._glued_compose

    def wrong(*args):
        row_of = real(*args)
        assert row_of(f)[g] == "(0,f,1_1)"
        return lambda m: {**row_of(m), g: f} if m == f else row_of(m)

    monkeypatch.setattr(awfs, "_glued_compose", wrong)


def test_a_wrong_composite_is_named_by_the_glued_category_check(monkeypatch):
    # E(f)'s category is checked first, by its full report, and the case's
    # witness ends with the report's first violation, which names the entry.
    _wrong_composite(monkeypatch)
    case = _constructions_case(monkeypatch, identity_functor(CORPUS["walking-iso"]))
    assert case.witness == (("e-category", "composite-typing", "(0,1_0,f)", "(0,f,g)", "(0,f,g)"),)


def test_a_dropped_crossing_fails_the_constructions_case(monkeypatch):
    # The one crossing of the identity on interval, through u, is left out
    # of the list that Ef's rows, Lf and Rf are built from; it stays a
    # morphism of Ef, with no composites.
    real = awfs._glued_compose

    def dropped(jp, A, crossings):
        crossings.pop()
        return real(jp, A, crossings)

    monkeypatch.setattr(awfs, "_glued_compose", dropped)
    case = _constructions_case(monkeypatch, identity_functor(CORPUS["interval"]))
    assert case.witness == (("e-category", "missing-composite", "(1,1_1,1_1)", "(I,1_0,1_0,u,1_1)"),)


def test_a_wrong_target_in_a_category_of_elements_fails_the_constructions_case(
    monkeypatch, corpus_funs
):
    # The first non-identity v moves its point to another point over the
    # same object: the result is still marked lawful, and J(f)'s full report
    # names the composite that lands elsewhere.
    real = semimonad.elements

    def wrong(base, over, act, obj_name, mor_name):
        hit = []

        def act2(p, v):
            q = act(p, v)
            others = [r for r, b in over.items() if b == over[q] and r != q]
            if hit or base.is_identity(v) or not others:
                return q
            hit.append(p)
            return others[0]

        return real(base, over, act2, obj_name, mor_name)

    monkeypatch.setattr(semimonad, "elements", wrong)
    case = _constructions_case(monkeypatch, dict(corpus_funs)["interval->walking-iso#0"])
    assert case.witness == (("j-category", "composite-typing", "(0,1_0,f)", "(0,f,g)", "(0,f,1_1)"),)


def test_the_lawful_mark_never_reaches_validate_category(monkeypatch, capsys):
    # E(f) is marked lawful when it is built, yet `validate_category` and
    # `deltalens validate` compute its full report; a copy loaded from JSON
    # has no mark.
    _wrong_composite(monkeypatch)
    ef = e_object.__wrapped__(identity_functor(CORPUS["walking-iso"]))
    assert vars(ef.e)["lawful"] is True
    violation = "composite-typing (0,1_0,f) (0,f,g) (0,f,g)"
    assert validate_category(ef.e).first == violation
    loaded = category_from_json(category_to_json(ef.e))
    assert "lawful" not in vars(loaded) and not loaded.lawful
    monkeypatch.setattr(cli, "e_object", e_object.__wrapped__)
    assert main(["validate", "ef:id:walking-iso"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL: ef:id:walking-iso (category)"
    assert f"violation: ef:id:walking-iso: {violation}" in out


def test_pinned_depth_3_canonical_json_is_pinned(pinned_depth_3):
    ef = e_object(pinned_depth_3)
    digest = lambda payload: hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
    assert digest(category_to_json(ef.e)) == (
        "921434be44970e2a543b2b3b13d3a4db067027b1b3f0b17da0eb03cf4bd44b0f"
    )
    assert digest(functor_to_json(ef.rf)) == (
        "ca60d3bcfbd7a5ca32e5225ca627280fee9130bbb190b23267ae94c2649ba0b1"
    )
    assert digest(functor_to_json(ef.lf)) == (
        "cbf62cc5e158c9fa154324bdcdf96555cec6cbc909a0dea8ff7672f863ffabcf"
    )


def _assert_composites_retag(f):
    """Composition tables hold the ids that `tag` rebuilds from parts."""
    A, B = f.dom, f.cod
    jp = j_object(f)
    parts = {m: (*p, v) for p, row in jp.mor_id.items() for v, m in row.items()}
    for m, (a, u, v) in parts.items():
        assert m == tag(a, u, v)
    for (m2, m1), m in jp.j.compose.items():
        a, u, v1 = parts[m1]
        assert m == tag(a, u, B.compose[(parts[m2][2], v1)])
    ef, kinds = e_object(f), ef_kinds(f)
    assert set(kinds) == set(ef.e.morphisms)
    for (m2, m1), m in ef.e.compose.items():
        assert m == ef_mor_id(f, compose_ef(f, kinds[m2], kinds[m1]))
    for b in B.objects:
        comma = comma_to_object(f, b)
        parts = {
            tag(w, u2): (w, u2)
            for w in A.morphisms
            for u2 in B.out(f.obj_map[A.tgt[w]])
            if B.tgt[u2] == b
        }
        assert set(comma.morphisms) == set(parts)
        for (m2, m1), m in comma.compose.items():
            (w2, u3), (w1, _) = parts[m2], parts[m1]
            assert m == tag(A.compose[(w2, w1)], u3)


def test_looked_up_ids_match_retagging(corpus_funs, corpus_sqs, pinned_depth_3):
    funs = [f for _, f in corpus_funs]
    assert len(funs) == 125
    for f in funs + [e_object(f).rf for f in funs] + [pinned_depth_3]:
        _assert_composites_retag(f)

    # The normal-form image of a square, worked out here from the kinds,
    # is the reference for `e_square`, which copairs its two restrictions.
    squares = [sq for _, sq in corpus_sqs]
    assert len(squares) == 5109
    kinds_of = {key: ef_kinds(f) for key, f in {sq.left.key: sq.left for sq in squares}.items()}
    for sq in squares:
        h, k, g = sq.top, sq.bottom, sq.right
        ef = e_object(sq.left)
        on_j, on_e = j_square(sq), e_square(sq)
        for (a, u), x in ef.j.obj_id.items():
            assert on_j.obj_map[x] == on_e.obj_map[x] == tag(h.obj_map[a], k.mor_map[u])
            for v, m in ef.j.mor_id[(a, u)].items():
                assert on_j.mor_map[m] == tag(h.obj_map[a], k.mor_map[u], k.mor_map[v])
        for m, kind in kinds_of[sq.left.key].items():
            if isinstance(kind, EfKindI):
                img = _kind1(
                    g, k.mor_map[kind.u1], k.mor_map[kind.v], h.mor_map[kind.w], k.mor_map[kind.u2]
                )
            elif isinstance(kind, EfKindII):
                img = _kind2(g, h.obj_map[kind.a], k.mor_map[kind.u1], k.mor_map[kind.v])
            else:
                img = EfId(h.obj_map[kind.a], k.mor_map[kind.u])
            assert on_e.mor_map[m] == ef_mor_id(g, img)


# `j_square` does not check its image: from a commuting square with a
# functor bottom leg it builds a functor over the bottom leg that keeps
# identity placement, by the argument in its docstring.  The test above
# pins its exact image on the corpus squares, and this one checks those
# three facts on every square the semimonad and lens-algebra families
# give it, the associativity and multiplication squares included.
def test_j_square_images_are_functors_over_the_bottom_leg(monkeypatch):
    seen: dict[tuple, CommutingSquare] = {}

    def recording(sq):
        seen.setdefault((sq.left.key, sq.right.key, sq.top.key, sq.bottom.key), sq)
        return j_square(sq)

    monkeypatch.setattr(semimonad, "j_square", recording)
    monkeypatch.setattr(awfs, "j_square", recording)
    assert run_laws(families=("semimonad", "lens-algebra")).ok
    assert len(seen) == 6281
    # The associativity and multiplication squares run from J(g)'s projection to g.
    assert sum(sq.left.key == j_object(sq.right).t.key for sq in seen.values()) == 80
    for sq in seen.values():
        jf, jg, out = j_object(sq.left), j_object(sq.right), j_square(sq)
        assert validate_functor(out).ok
        assert commutes(jg.t, out, sq.bottom, jf.t)
        assert all(
            out.obj_map[jf.s.obj_map[a]] == jg.s.obj_map[sq.top.obj_map[a]]
            for a in sq.left.dom.objects
        )


# `nu`, `mu` and `comonad_data` do not check their results, by the
# arguments in their docstrings, and each validator decides first that
# its own structure map is a functor.  This test checks the result of
# every argument they get in a full `laws` run, the iterated levels that
# no validator is asked about included (`nu` at the coslice projection,
# `mu` at rf and lf, the split at lf and rf).
def test_structure_maps_of_a_laws_run_are_functors(monkeypatch):
    seen: dict[str, dict] = {"nu": {}, "mu": {}, "comonad_data": {}}
    real = {"nu": nu, "mu": mu, "comonad_data": comonad_data}

    def recording(name):
        def record(f):
            seen[name].setdefault(f.key, f)
            return real[name](f)

        return record

    for module, name in ((semimonad, "nu"), (awfs, "mu"), (laws, "mu"), (awfs, "comonad_data")):
        monkeypatch.setattr(module, name, recording(name))
    assert run_laws().ok
    assert {name: len(args) for name, args in seen.items()} == {
        "nu": 284,
        "mu": 365,
        "comonad_data": 365,
    }
    for name, args in seen.items():
        for f in args.values():
            assert validate_functor(real[name](f)).ok, name


# `copair` does not check its result: from functor legs that agree on
# placed objects it builds a functor that restricts to both, by the
# pushout argument in its docstring.  The next test checks that on every
# such pair of legs into a fixture, and these three check the result and
# both restriction equations on the copairings built by `e_square`, `mu`,
# `comonad_data`, `r_algebra_from_jr` and the projection Rf over the
# corpus, with `compose_functors` and `==` rather than `commutes`.
def test_copairs_of_functor_legs_are_functors(corpus_funs):
    pairs = 0
    for _, f in corpus_funs:
        ef = e_object(f)
        A, placed = f.dom, ef.j.s.obj_map
        for X in CORPUS.values():
            try:
                on_as = enumerate_functors(A, X, guard=10**6)
                on_js = enumerate_functors(ef.j.j, X, guard=10**6)
            except GuardExceededError:
                continue
            by_placement: dict[tuple, list] = {}
            for on_j in on_js:
                by_placement.setdefault(tuple(on_j.obj_map[placed[a]] for a in A.objects), []).append(on_j)
            for on_a in on_as:
                for on_j in by_placement.get(tuple(on_a.obj_map[a] for a in A.objects), ()):
                    pairs += 1
                    assert validate_functor(copair(ef, on_a, on_j)).ok
    assert pairs == 6958


def _assert_restricts(out, pres, on_a, on_j):
    assert validate_functor(out).ok
    assert compose_functors(out, pres.alpha) == on_j
    assert compose_functors(out, pres.lf) == on_a


def test_e_square_restricts_to_its_legs(corpus_sqs):
    for _, sq in corpus_sqs:
        eg = e_object(sq.right)
        _assert_restricts(
            e_square(sq),
            e_object(sq.left),
            compose_functors(eg.lf, sq.top),
            compose_functors(eg.alpha, j_square(sq)),
        )


# `e_square` builds neither of its composite legs and glues straight onto
# `j_square`'s tables; the copairing of the two composites is the
# reference, on every corpus square and on the two squares each one gives
# the naturality laws: its `mu`-naturality and its delta-naturality square.
def test_e_square_is_the_copairing_of_its_composite_legs(corpus_sqs):
    squares = []
    for _, sq in corpus_sqs:
        ef, eg, inner = e_object(sq.left), e_object(sq.right), e_square(sq)
        squares += [
            sq,
            CommutingSquare(ef.rf, eg.rf, inner, sq.bottom),
            CommutingSquare(ef.lf, eg.lf, sq.top, inner),
        ]
    assert len(squares) == 15327
    for sq in squares:
        eg = e_object(sq.right)
        on_a, on_j = compose_functors(eg.lf, sq.top), compose_functors(eg.alpha, j_square(sq))
        assert e_square(sq) == copair(e_object(sq.left), on_a, on_j)


@pytest.mark.parametrize("moved", ["object", "identity"])
def test_e_square_keeps_the_placement_check(monkeypatch, moved):
    # A coslice image that moves the placed object (a, 1), or its identity,
    # disagrees with Lg . top there, and `e_square` refuses to glue.
    fun = identity_functor(CORPUS["interval"])
    sq = CommutingSquare(fun, fun, identity_functor(fun.dom), identity_functor(fun.cod))
    ef = e_object(fun)  # the square runs from fun to fun, so Ef is also Eg
    x = ef.j.s.obj_map["0"]

    def moving(sq):
        out = j_square(sq)
        other = next(y for y in ef.e.objects if y != out.obj_map[x])
        if moved == "object":
            return dataclasses.replace(out, obj_map={**out.obj_map, x: other})
        return dataclasses.replace(out, mor_map={**out.mor_map, ef.j.j.identity[x]: ef.e.identity[other]})

    monkeypatch.setattr(awfs, "j_square", moving)
    with pytest.raises(ContractError, match="^copair legs disagree on placed objects$"):
        e_square(sq)


def test_mu_and_comultiplication_restrict_to_their_legs(corpus_funs):
    for _, f in corpus_funs:
        ef = e_object(f)
        upper, el = e_object(ef.rf), e_object(ef.lf)
        _assert_restricts(ef.rf, ef, f, ef.j.t)
        on_j = FinFunctor(upper.j.j, ef.e, *_collapse(upper.j, ef.j))
        _assert_restricts(mu(f), upper, identity_functor(ef.e), on_j)
        _assert_restricts(comonad_data(f), ef, el.lf, compose_functors(el.alpha, _delta(f)))


def test_extended_structure_map_restricts_to_its_legs(corpus_lens_list):
    for _, l in corpus_lens_list:
        jr = jr_from_lens(l)
        out = r_algebra_from_jr(jr).structure
        _assert_restricts(out, e_object(l.functor), identity_functor(l.functor.dom), jr.structure)


# Fault injection for the checks that decide a construction's output in the
# step after it.  A structure map goes wrong in one entry: the first identity
# of its domain is sent to a non-identity, which no functor does.
def _one_wrong_entry(fun):
    other = next(iter(fun.cod.nonidentity), None)
    first = fun.dom.identity[fun.dom.objects[0]]
    return other and dataclasses.replace(fun, mor_map={**fun.mor_map, first: other})


# A fault in the output of a link of the round trip is reported by the
# contract of the link after it.
@pytest.mark.parametrize(
    "module, message, link",
    [
        (laws, "structure map fails the coslice algebra laws", "jr_from_lens"),  # lens_from_jr's
        (awfs, "structure map fails the coslice algebra laws", "jr_from_lens"),  # r_algebra_from_jr's
        (awfs, "structure map fails the R-algebra laws", "r_algebra_from_jr"),  # jr_from_r_algebra's
    ],
)
def test_lens_algebra_reports_a_faulty_structure_map(
    monkeypatch, corpus_lens_list, module, message, link
):
    real = getattr(module, link)

    def faulty(arg):
        alg = real(arg)
        bad = _one_wrong_entry(alg.structure)
        return dataclasses.replace(alg, structure=bad) if bad else alg

    faulted = {name for name, l in corpus_lens_list if _one_wrong_entry(jr_from_lens(l).structure)}
    monkeypatch.setattr(module, link, faulty)
    result = run_laws(families=("lens-algebra",))
    assert len(result.cases) == len(corpus_lens_list)
    assert len(faulted) > len(corpus_lens_list) // 2
    for case in result.cases:
        if case.subject in faulted:
            assert case.witness == (("error", f"ContractError: {message}"),), case.subject
        else:
            assert case.ok, case.subject


def _tampered_cofree(f):
    coalg = cofree_coalgebra(f)
    bad = _one_wrong_entry(coalg.structure)
    return LCoalgebra(coalg.functor, bad) if bad else coalg


def test_coalgebra_family_reports_a_tampered_cofree_coalgebra(monkeypatch, corpus_funs):
    faulted = {
        f"cofree:{name}" for name, f in corpus_funs
        if _one_wrong_entry(cofree_coalgebra(f).structure)
    }
    monkeypatch.setattr(laws, "cofree_coalgebra", _tampered_cofree)
    result = run_laws(families=("coalgebra",))
    assert len(result.cases) == len(corpus_funs)
    assert len(faulted) > len(corpus_funs) // 2
    for case in result.cases:
        if case.subject in faulted:
            assert case.witness == (("structure-functor",),), case.subject
        else:
            assert case.ok, case.subject


def test_lift_rejects_a_tampered_cofree_coalgebra(monkeypatch, capsys):
    argv = ["lift", "--coalgebra", "cofree:id:interval", "--lens", "id-lens:interval",
            "--top", "id:interval", "--bottom", "rf:id:interval"]
    assert main(argv) == 0
    monkeypatch.setattr(cli, "cofree_coalgebra", _tampered_cofree)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "law failure: structure map fails the coalgebra laws\n"
