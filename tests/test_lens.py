import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltalens.awfs import free_lens
from deltalens.fixtures import CORPUS
from deltalens.factorization import CommutingSquare, is_discrete_opfibration
from deltalens.kernel import (
    ContractError,
    FinFunctor,
    InputError,
    identity_functor,
)
from deltalens.lens import (
    DeltaLens,
    LiftingTable,
    compose_lenses,
    identity_lens,
    lambda_presentation,
    lens_from_discrete_opfibration,
    lens_from_lambda,
    lens_pairs,
    validate_lens,
    validate_lens_morphism,
)
from deltalens.search import enumerate_lens_structures
from deltalens.serialization import canonical_dumps, category_to_json, functor_to_json


def _bang():
    iv, term = CORPUS["interval"], CORPUS["terminal"]
    return FinFunctor(
        iv, term,
        {"0": "*", "1": "*"},
        {"1_0": "1_*", "1_1": "1_*", "u": "1_*"},
    )


def test_identity_lens_is_lawful():
    for c in CORPUS.values():
        assert validate_lens(identity_lens(c)).ok


def test_lens_pairs_enumerates_base_cosieves():
    f = _bang()
    assert sorted(lens_pairs(f)) == [("0", "1_*"), ("1", "1_*")]


def test_lift_outside_table_is_an_error():
    l = identity_lens(CORPUS["interval"])
    with pytest.raises(InputError):
        l.lift("0", "1_1")


def _tamper(l: DeltaLens, key, value) -> DeltaLens:
    entries = dict(l.lifts.entries)
    entries[key] = value
    return DeltaLens(l.functor, LiftingTable(entries))


def test_projection_breakage_is_reported():
    wr = CORPUS["walking-retraction"]
    l = identity_lens(wr)
    bad = _tamper(l, ("1", "e"), "r")
    report = validate_lens(bad)
    assert any(v[0] == "L1" for v in report.violations)


def test_identity_lift_breakage_is_reported():
    f = _bang()
    const = DeltaLens(f, LiftingTable({("0", "1_*"): "u", ("1", "1_*"): "1_1"}))
    report = validate_lens(const)
    assert any(v[0] == "L2" for v in report.violations)


def test_chained_lift_law_violation():
    wr = CORPUS["walking-retraction"]
    l = free_lens(identity_functor(wr))
    bad = _tamper(l, ("(0,1_0)", "s"), "(I,1_0,1_0,s,1_1)")
    report = validate_lens(bad)
    assert {v[0] for v in report.violations} == {"L3"}


def test_unique_structure_on_discrete_opfibrations(corpus_funs):
    seen = 0
    for name, fun in corpus_funs:
        if not is_discrete_opfibration(fun):
            continue
        structures = enumerate_lens_structures(fun, 10**6)
        assert len(structures) == 1, name
        assert structures[0].lifts == lens_from_discrete_opfibration(fun).lifts
        seen += 1
    assert seen >= 10


def test_enumerated_structures_match_raw_filter():
    f = _bang()
    fast = enumerate_lens_structures(f, 10**6)

    pairs = sorted(lens_pairs(f))
    candidates = []
    for a, u in pairs:
        candidates.append([
            m for m in f.dom.morphisms
            if f.dom.src[m] == a and f.mor_map[m] == u
        ])
    slow = []
    for choice in itertools.product(*candidates):
        table = LiftingTable(dict(zip(pairs, choice)))
        l = DeltaLens(f, table)
        if validate_lens(l).ok:
            slow.append(l.lifts.entries)
    assert sorted(map(sorted, (l.lifts.entries.items() for l in fast))) == sorted(
        map(sorted, (e.items() for e in slow))
    )


def test_compose_lenses_identity_and_associativity(corpus_lens_list):
    composable = []
    for n1, l1 in corpus_lens_list:
        for n2, l2 in corpus_lens_list:
            if l1.functor.cod.key == l2.functor.dom.key:
                composable.append((l1, l2))
    assert composable
    for l1, l2 in composable[:20]:
        left = compose_lenses(l1, identity_lens(l1.functor.dom))
        assert left.lifts == l1.lifts
        comp = compose_lenses(l1, l2)
        assert validate_lens(comp).ok
    for l1, l2 in composable[:10]:
        for _, l3 in corpus_lens_list:
            if l2.functor.cod.key != l3.functor.dom.key:
                continue
            a = compose_lenses(compose_lenses(l1, l2), l3)
            b = compose_lenses(l1, compose_lenses(l2, l3))
            assert a.lifts == b.lifts
            break


def test_lens_morphism_identity_square(corpus_lens_list):
    for name, l in corpus_lens_list[:12]:
        sq = CommutingSquare(
            l.functor, l.functor,
            identity_functor(l.functor.dom),
            identity_functor(l.functor.cod),
        )
        assert validate_lens_morphism(sq, l, l).ok, name


def test_lens_morphism_detects_lift_mismatch():
    pp, iv = CORPUS["parallel-pair"], CORPUS["interval"]
    fun = FinFunctor(
        pp, iv,
        {"0": "0", "1": "1"},
        {"1_0": "1_0", "1_1": "1_1", "s": "u", "t": "u"},
    )
    l1, l2 = enumerate_lens_structures(fun, 10**6)
    assert l1.lifts != l2.lifts
    sq = CommutingSquare(fun, fun, identity_functor(pp), identity_functor(iv))
    report = validate_lens_morphism(sq, l1, l2)
    assert any(v[0] == "lift-preservation" for v in report.violations)
    assert validate_lens_morphism(sq, l1, l1).ok


def test_lambda_presentation_round_trip(corpus_lens_list):
    for name, l in corpus_lens_list:
        pres = lambda_presentation(l)
        assert is_discrete_opfibration(pres.over), name
        assert sorted(pres.phi.obj_map.values()) == sorted(pres.lam.objects), name
        back = lens_from_lambda(pres, l.functor)
        assert back.lifts == l.lifts, name


def test_lambda_presentations_are_pinned(corpus_lens_list):
    # The names of Lambda, phi and over, in corpus order, fed to one digest.
    digest = hashlib.sha256()
    for _, l in corpus_lens_list:
        pres = lambda_presentation(l)
        payload = [category_to_json(pres.lam), functor_to_json(pres.phi), functor_to_json(pres.over)]
        digest.update(canonical_dumps(payload).encode())
    assert len(corpus_lens_list) == 46
    assert digest.hexdigest() == "c50959f29a3a2047544afc6347feac7618c51e336d1861a455b6fefde543676f"


def test_lens_from_lambda_rejects_wrong_base():
    iv = CORPUS["interval"]
    l = identity_lens(iv)
    pres = lambda_presentation(l)
    const0 = FinFunctor(
        iv, iv,
        {"0": "0", "1": "0"},
        {"1_0": "1_0", "1_1": "1_0", "u": "1_0"},
    )
    with pytest.raises(ContractError):
        lens_from_lambda(pres, const0)
    with pytest.raises(InputError):
        lens_from_lambda(pres, identity_functor(CORPUS["walking-iso"]))


def test_lambda_presentation_rejects_a_table_failing_the_lens_laws():
    # The lift of u at 0 lands on 0, which does not lie over 1 = tgt u.
    bad = _tamper(identity_lens(CORPUS["interval"]), ("0", "u"), "1_0")
    assert not validate_lens(bad).ok
    with pytest.raises(ContractError, match="lifting table fails the lens laws: L1 0 u"):
        lambda_presentation(bad)


def test_compose_lenses_rejects_a_table_failing_the_lens_laws():
    # A composite of lawful lenses is lawful, so only the inputs are checked.
    iv = CORPUS["interval"]
    bad = _tamper(identity_lens(iv), ("0", "u"), "1_0")
    for l1, l2 in ((bad, identity_lens(iv)), (identity_lens(iv), bad)):
        with pytest.raises(ContractError, match="lifting table fails the lens laws: L1 0 u"):
            compose_lenses(l1, l2)


@given(st.integers(0, 3))
def test_bang_table_filter_agrees_with_validator(choice_index):
    f = _bang()
    pairs = sorted(lens_pairs(f))
    options = [
        [m for m in f.dom.morphisms if f.dom.src[m] == a and f.mor_map[m] == u]
        for a, u in pairs
    ]
    combos = list(itertools.product(*options))
    table = dict(zip(pairs, combos[choice_index % len(combos)]))
    l = DeltaLens(f, LiftingTable(table))

    # straight re-statement of the three lifting laws
    def lawful():
        for (a, u), m in table.items():
            if f.mor_map[m] != u or f.dom.src[m] != a:
                return False
        for a in f.dom.objects:
            if table[(a, f.mor_map[f.dom.identity[a]])] != f.dom.identity[a]:
                return False
        for (a, u), m in table.items():
            p = f.dom.tgt[m]
            for v in f.cod.out(f.cod.tgt[u]):
                lhs = table[(p, v)]
                if table[(a, f.cod.compose[(v, u)])] != f.dom.compose[(lhs, m)]:
                    return False
        return True

    assert validate_lens(l).ok == lawful()
