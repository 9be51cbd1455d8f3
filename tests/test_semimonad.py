import pytest

from deltalens.awfs import e_object
from deltalens.fixtures import CORPUS
from deltalens.factorization import (
    CommutingSquare,
    is_discrete_opfibration,
    is_initial,
)
from deltalens import semimonad
from deltalens.kernel import (
    ContractError,
    FinCat,
    FinFunctor,
    GuardExceededError,
    compose_functors,
    counit_inclusion,
    identity_functor,
)
from deltalens.lens import DeltaLens, LiftingTable
from deltalens.search import enumerate_jr_algebras, enumerate_lens_structures
from deltalens.semimonad import (
    JrAlgebra,
    j_object,
    jr_from_lens,
    lens_from_jr,
    nu,
    validate_jr_algebra,
    validate_jr_morphism,
    validate_semimonad,
)


def _bang():
    iv, term = CORPUS["interval"], CORPUS["terminal"]
    return FinFunctor(
        iv, term,
        {"0": "*", "1": "*"},
        {"1_0": "1_*", "1_1": "1_*", "u": "1_*"},
    )


def test_coslice_construction_on_interval_identity():
    jp = j_object(identity_functor(CORPUS["interval"]))
    assert sorted(jp.j.objects) == ["(0,1_0)", "(0,u)", "(1,1_1)"]
    assert sorted(jp.j.morphisms) == [
        "(0,1_0,1_0)", "(0,1_0,u)", "(0,u,1_1)", "(1,1_1,1_1)",
    ]


def test_coslice_sizes_match_counting_formula(corpus_funs):
    for name, fun in corpus_funs:
        jp = j_object(fun)
        objs = sum(len(fun.cod.out(fun.obj_map[a])) for a in fun.dom.objects)
        assert len(jp.j.objects) == objs, name
        mors = 0
        for a in fun.dom.objects:
            for u in fun.cod.out(fun.obj_map[a]):
                mors += len(fun.cod.out(fun.cod.tgt[u]))
        assert len(jp.j.morphisms) == mors, name


# `j_object` and `nu` are cached on `coslice_key`, what J reads of a
# functor: the domain's objects and identity ids, the object map and the
# codomain.  R(f) agrees with t on all of it, so J(Rf) is J(t).
def test_coslice_presentations_are_shared_by_rf_and_t(corpus_funs):
    for name, f in corpus_funs:
        ef = e_object(f)
        shared = j_object(ef.rf)
        assert shared is j_object(ef.j.t), name
        assert shared == j_object.__wrapped__(ef.rf) == j_object.__wrapped__(ef.j.t), name
        assert nu(f) == nu.__wrapped__(f), name


def _renamed(c: FinCat, objects: dict, morphisms: dict) -> FinCat:
    o, r = lambda x: objects.get(x, x), lambda m: morphisms.get(m, m)
    return FinCat(
        tuple(map(o, c.objects)),
        tuple(map(r, c.morphisms)),
        {r(m): o(x) for m, x in c.src.items()},
        {r(m): o(x) for m, x in c.tgt.items()},
        {o(x): r(m) for x, m in c.identity.items()},
        {r(f): {r(g): r(gf) for g, gf in row.items()} for f, row in c.after.items()},
    )


def test_functors_that_j_reads_apart_get_their_own_presentations():
    iv = CORPUS["interval"]
    renamed = lambda objects, morphisms: _renamed(iv, objects, morphisms)
    on_mor = {"1_0": "1_0", "1_1": "1_1", "u": "u"}
    funs = {
        "base": identity_functor(iv),
        "codomain": FinFunctor(iv, renamed({}, {"u": "v"}), {"0": "0", "1": "1"}, dict(on_mor, u="v")),
        "domain objects": FinFunctor(renamed({"0": "a", "1": "b"}, {}), iv, {"a": "0", "b": "1"}, on_mor),
        "identity ids": FinFunctor(
            renamed({}, {"1_0": "e0", "1_1": "e1"}), iv, {"0": "0", "1": "1"},
            {"e0": "1_0", "e1": "1_1", "u": "u"},
        ),
    }
    presentations = {name: j_object(f) for name, f in funs.items()}
    for name, f in funs.items():
        assert presentations[name] == j_object.__wrapped__(f), name
    assert len({id(p) for p in presentations.values()}) == len(funs)
    assert all(p != presentations["base"] for name, p in presentations.items() if name != "base")


def test_coslice_legs_classify_and_compose(corpus_funs):
    for name, fun in corpus_funs[:60]:
        jp = j_object(fun)
        assert is_initial(jp.s), name
        assert is_discrete_opfibration(jp.t), name
        assert compose_functors(jp.t, jp.s) == compose_functors(
            fun, counit_inclusion(fun.dom)
        ), name


def test_semimonad_laws_on_sample(corpus_funs):
    for name, fun in corpus_funs[:25]:
        assert validate_semimonad(fun).ok, name


def test_corrupted_multiplication_breaks_functor_layer(monkeypatch):
    # nu is built unchecked: one non-identity of its collapse sent to an
    # identity breaks functoriality, and validate_semimonad's first
    # structure check names it as the whole report.
    fun = identity_functor(CORPUS["interval"])
    real = semimonad._collapse

    def retargeted(upper, base):
        obj_map, mor_map = real(upper, base)
        k = next(m for m in mor_map if not upper.j.is_identity(m))
        return obj_map, {**mor_map, k: base.j.identity[base.j.tgt[mor_map[k]]]}

    monkeypatch.setattr(semimonad, "nu", nu.__wrapped__)
    monkeypatch.setattr(semimonad, "_collapse", retargeted)
    assert validate_semimonad(fun).violations == (
        ("nu-functor", "src-preservation", "(\\(0\\,1_0\\),1_0,u)"),
    )


def _deck_swap(fun):
    """The fibre-swapping automorphism of the walking-iso coslice."""
    jp = j_object(fun)
    swap_obj = {"(0,1_0)": "(1,g)", "(1,g)": "(0,1_0)",
                "(0,f)": "(1,1_1)", "(1,1_1)": "(0,f)"}
    mor_map = {}
    for m in jp.j.morphisms:
        x = swap_obj[jp.j.src[m]]
        over = jp.t.mor_map[m]
        lift = [
            m2 for m2 in jp.j.out(x) if jp.t.mor_map[m2] == over
        ]
        assert len(lift) == 1
        mor_map[m] = lift[0]
    return FinFunctor(jp.j, jp.j, swap_obj, mor_map)


def test_twisted_multiplication_breaks_unit_law(monkeypatch):
    # The twist keeps the multiplication over the base, so the laws are
    # checked, and the unit law fails.
    fun = identity_functor(CORPUS["walking-iso"])
    real = semimonad.nu
    twisted = compose_functors(_deck_swap(fun), real(fun))
    monkeypatch.setattr(semimonad, "nu", lambda f: twisted if f.key == fun.key else real(f))
    report = validate_semimonad(fun)
    assert not report.ok
    assert ("nu-unit",) in report.violations


def test_naturality_checked_against_squares(corpus_funs, corpus_sqs):
    fun = next(f for n, f in corpus_funs if n == "interval->interval#0")
    sqs = tuple(sq for _, sq in corpus_sqs if sq.left.key == fun.key)
    assert sqs
    assert validate_semimonad(fun, squares=sqs).ok


def test_strict_candidate_census_over_point():
    f = _bang()
    algebras = enumerate_jr_algebras(f, 10**6)
    assert len(algebras) == 1
    jp = j_object(f)
    const0 = FinFunctor(
        jp.j, f.dom,
        {x: "0" for x in jp.j.objects},
        {m: "1_0" for m in jp.j.morphisms},
    )
    report = validate_jr_algebra(JrAlgebra(f, const0))
    assert ("unit",) in report.violations


def test_lens_algebra_round_trips(corpus_lens_list):
    for name, l in corpus_lens_list:
        alg = jr_from_lens(l)
        assert validate_jr_algebra(alg).ok, name
        back = lens_from_jr(alg)
        assert back.lifts == l.lifts, name


def test_algebra_lens_round_trips(corpus_funs):
    seen = 0
    for name, fun in corpus_funs[:40]:
        try:
            algebras = enumerate_jr_algebras(fun, 4096)
        except GuardExceededError:
            continue
        for alg in algebras:
            l = lens_from_jr(alg)
            again = jr_from_lens(l)
            assert again.structure == alg.structure, name
            seen += 1
    assert seen >= 10


def test_jr_morphism_compatibility():
    pp, iv = CORPUS["parallel-pair"], CORPUS["interval"]
    fun = FinFunctor(
        pp, iv,
        {"0": "0", "1": "1"},
        {"1_0": "1_0", "1_1": "1_1", "s": "u", "t": "u"},
    )
    l1, l2 = enumerate_lens_structures(fun, 10**6)
    a1, a2 = jr_from_lens(l1), jr_from_lens(l2)
    sq = CommutingSquare(fun, fun, identity_functor(pp), identity_functor(iv))
    assert validate_jr_morphism(sq, a1, a1).ok
    report = validate_jr_morphism(sq, a1, a2)
    assert any(v[0] == "structure-compat" for v in report.violations)


def test_invalid_lens_is_rejected():
    f = _bang()
    const = DeltaLens(f, LiftingTable({("0", "1_*"): "u", ("1", "1_*"): "1_1"}))
    with pytest.raises(ContractError):
        jr_from_lens(const)
