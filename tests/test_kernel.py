import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    associativity_violations,
    composition_closure,
    composition_violations,
    tag_by_chars,
    totality_violations,
)

from deltalens.awfs import comonad_data, e_object, mu
from deltalens.fixtures import CORPUS
from deltalens.kernel import (
    _Key,
    FinCat,
    FinFunctor,
    GuardExceededError,
    InputError,
    commutes,
    compose_functors,
    counit_inclusion,
    discrete,
    enumerate_functors,
    identity_functor,
    same_cat,
    rows_from_pairs,
    same_functor,
    tag,
    validate_category,
    validate_functor,
)
from deltalens.semimonad import j_object
from deltalens.serialization import (
    category_from_json,
    category_to_json,
    functor_from_json,
    functor_to_json,
)

names = st.text(
    alphabet="abu01(),\\<>*_ ", min_size=1, max_size=10
)


@given(st.lists(names, min_size=1, max_size=4), st.lists(names, min_size=1, max_size=4))
def test_tag_injective(p, q):
    assert (tag(*p) == tag(*q)) == (p == q)


@given(st.lists(st.text(alphabet="\\,()<abu", max_size=6), max_size=4))
def test_tag_matches_a_char_by_char_escaper(parts):
    # Tagged twice: the second time every part's escaped form is looked up,
    # by an equal string that is a distinct object wherever Python makes one
    # (not for "" or a single character).
    expected = tag_by_chars(*parts)
    assert tag(*parts) == expected
    copies = [part.encode().decode() for part in parts]
    assert copies == parts
    assert all(c is not part for c, part in zip(copies, parts) if len(part) > 1)
    assert tag(*copies) == expected


def test_fixture_tables_are_lawful():
    for name, c in CORPUS.items():
        assert validate_category(c).ok, name


def test_out_into_hom_partition_morphisms():
    for c in CORPUS.values():
        assert sum(len(c.out(a)) for a in c.objects) == len(c.morphisms)
        assert sum(len(c.into(a)) for a in c.objects) == len(c.morphisms)
        for m in c.morphisms:
            assert m in c.out(c.src[m])
            assert m in c.hom(c.src[m], c.tgt[m])


def test_composite_agrees_with_table():
    wr = CORPUS["walking-retraction"]
    assert wr.composite("r", "s") == "1_0"
    assert wr.composite("s", "r") == "e"
    assert wr.composite("e", "e") == "e"


def _chain_dict():
    return {
        "objects": ["x", "y"],
        "morphisms": {"1_x": ("x", "x"), "1_y": ("y", "y"), "a": ("x", "y")},
        "identity": {"x": "1_x", "y": "1_y"},
        "compose": {
            ("1_x", "1_x"): "1_x",
            ("1_y", "1_y"): "1_y",
            ("a", "1_x"): "a",
            ("1_y", "a"): "a",
        },
    }


def _build(d) -> FinCat:
    return FinCat(
        objects=tuple(d["objects"]),
        morphisms=tuple(d["morphisms"]),
        src={m: s for m, (s, _) in d["morphisms"].items()},
        tgt={m: t for m, (_, t) in d["morphisms"].items()},
        identity=dict(d["identity"]),
        after=rows_from_pairs(d["compose"].items()),
    )


def test_validate_category_accepts_chain():
    assert validate_category(_build(_chain_dict())).ok


def test_validate_category_missing_composite():
    d = _chain_dict()
    del d["compose"][("1_y", "a")]
    report = validate_category(_build(d))
    assert ("missing-composite", "1_y", "a") in report.violations


def test_validate_category_wrong_unit():
    d = _chain_dict()
    d["compose"][("1_y", "a")] = "1_y"
    report = validate_category(_build(d))
    assert not report.ok
    assert any(v[0] in ("left-unit", "composite-typing") for v in report.violations)


def test_validate_category_unknown_identity():
    d = _chain_dict()
    d["identity"]["x"] = "nope"
    report = validate_category(_build(d))
    assert any(v[0] == "unknown-identity" for v in report.violations)


def _non_associative() -> FinCat:
    """One object, a total typed table with lawful units, and
    (a.a).a == 1 != b == a.(a.a)."""
    return FinCat(
        objects=("x",),
        morphisms=("1", "a", "b"),
        src={"1": "x", "a": "x", "b": "x"},
        tgt={"1": "x", "a": "x", "b": "x"},
        identity={"x": "1"},
        after=rows_from_pairs({
            ("1", "1"): "1",
            ("1", "a"): "a", ("a", "1"): "a",
            ("1", "b"): "b", ("b", "1"): "b",
            ("a", "a"): "b",
            ("b", "a"): "1", ("a", "b"): "b",
            ("b", "b"): "a",
        }.items()),
    )


def test_validate_category_broken_associativity():
    report = validate_category(_non_associative())
    assert any(v[0] == "associativity" for v in report.violations)


def _stray_identity() -> FinCat:
    """One object with identity 1, and an `identity` entry z -> a for no
    object: (a.a).b == b != 1 == a.(a.b), a triple with middle a."""
    return FinCat(
        objects=("x",),
        morphisms=("1", "a", "b"),
        src={"1": "x", "a": "x", "b": "x"},
        tgt={"1": "x", "a": "x", "b": "x"},
        identity={"x": "1", "z": "a"},
        after=rows_from_pairs({
            ("1", "1"): "1",
            ("1", "a"): "a", ("a", "1"): "a",
            ("1", "b"): "b", ("b", "1"): "b",
            ("a", "a"): "1", ("a", "b"): "a",
            ("b", "a"): "a", ("b", "b"): "1",
        }.items()),
    )


def test_stray_identity_entry_is_no_generator():
    c = _stray_identity()
    assert c.generators == ("a", "b")
    report = validate_category(c)
    assert not report.ok
    found = [v for v in report.violations if v[0] == "associativity"]
    assert found and found == associativity_violations(c)


def _one_failure(arrow: bool) -> FinCat:
    """One object x with 1, p, q, r and a unital table in which only
    (q.p).p = r.p = r differs from q.(p.p) = q, a triple whose middle is the
    generator p (r = q.p is none).  With `arrow`, also a: x -> y, where y has
    only its identity out: the generator a is tested first, and its row out
    of tgt a has one entry.  A failure cannot sit at such a row once the
    units hold, since its one h is an identity."""
    xs = ("1", "p", "q", "r")
    pairs = {("1", m): m for m in xs} | {(m, "1"): m for m in xs}
    pairs |= {("p", "p"): "1", ("p", "q"): "q", ("p", "r"): "r", ("q", "p"): "r", ("q", "q"): "q",
              ("q", "r"): "r", ("r", "p"): "r", ("r", "q"): "q", ("r", "r"): "r"}
    src = tgt = {m: "x" for m in xs}
    if arrow:
        pairs |= {("a", m): "a" for m in xs} | {("1y", "a"): "a", ("1y", "1y"): "1y"}
        src, tgt = {**src, "a": "x", "1y": "y"}, {**tgt, "a": "y", "1y": "y"}
    ids = {"x": "1", "y": "1y"} if arrow else {"x": "1"}
    return FinCat(tuple(ids), tuple(src), src, tgt, ids, rows_from_pairs(pairs.items()))


@pytest.mark.parametrize("arrow", [False, True], ids=["row-of-four", "one-entry-row-first"])
def test_associativity_failure_at_a_generator_middle_only(arrow):
    c = _one_failure(arrow)
    assert c.generators == (("a",) if arrow else ()) + ("p", "q")
    assert [len(c.after[g]) for g in c.generators] == ([1, 5, 5] if arrow else [4, 4])
    assert associativity_violations(c) == [("associativity", "q", "p", "p")]
    assert list(validate_category(c).violations) == associativity_violations(c)


def _assoc_subject(name: str) -> FinCat:
    if name in CORPUS:
        return CORPUS[name]
    iso = CORPUS["walking-iso"]
    f = enumerate_functors(iso, iso)[0]
    return e_object(e_object(f).rf).e


@given(st.data())
def test_associativity_report_matches_naive_sweep(data):
    c = _assoc_subject(data.draw(st.sampled_from(sorted(CORPUS) + ["depth-2"])))
    keys = sorted(c.compose)
    compose = dict(c.compose)
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(keys))
        value = data.draw(st.sampled_from((None,) + c.morphisms))
        if value is None:
            compose.pop(key, None)
        else:
            compose[key] = value
    broken = FinCat(c.objects, c.morphisms, c.src, c.tgt, c.identity, rows_from_pairs(compose.items()))
    report = validate_category(broken)
    found = [v for v in report.violations if v[0] == "associativity"]
    assert found == associativity_violations(broken)


TOTALITY = ("compose-unknown", "compose-not-composable", "composite-typing", "missing-composite")


@given(st.data())
def test_totality_report_matches_naive_sweep(data):
    c = _assoc_subject(data.draw(st.sampled_from(sorted(CORPUS) + ["depth-2"])))
    keys = sorted(c.compose)
    compose = dict(c.compose)
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from(keys))
        g, f = key
        kind = data.draw(st.sampled_from(("delete", "not-composable", "mistyped", "unknown")))
        if kind == "delete":
            compose.pop(key, None)
        elif kind == "unknown":
            compose[key] = "no-such-morphism"
        elif kind == "not-composable":
            apart = [h for h in c.morphisms if c.tgt[h] != c.src[g]]
            if apart:
                compose[(g, data.draw(st.sampled_from(apart)))] = g
        else:
            wrong = [h for h in c.morphisms if (c.src[h], c.tgt[h]) != (c.src[f], c.tgt[g])]
            if wrong:
                compose[key] = data.draw(st.sampled_from(wrong))
    broken = FinCat(c.objects, c.morphisms, c.src, c.tgt, c.identity, rows_from_pairs(compose.items()))
    report = validate_category(broken)
    assert [v for v in report.violations if v[0] in TOTALITY] == totality_violations(broken)
    assert validate_category(c).ok and totality_violations(c) == []


def _functor_subject(kind: str, f: FinFunctor) -> FinFunctor:
    if kind == "mu":
        return mu(f)
    if kind == "comultiplication":
        return comonad_data(f)
    if kind == "lf":
        return e_object(f).lf
    if kind == "lf-depth-2":
        return e_object(e_object(f).rf).lf
    return f


def _composition_found(fun: FinFunctor) -> list[tuple]:
    return [v for v in validate_functor(fun).violations if v[0] == "composition-preservation"]


@given(st.data())
def test_functor_report_matches_naive_sweep(corpus_funs, data):
    kind = data.draw(
        st.sampled_from(("corpus", "mu", "comultiplication", "lf", "lf-depth-2", "non-associative"))
    )
    if kind == "non-associative":
        # dom is no category, so only the full sweep may speak: sending a and
        # b to e preserves every composite after the generator a, not b.a.
        # A stray identity entry z -> a makes a look like an identity.
        for dom in (_non_associative(), _stray_identity()):
            for cod in (CORPUS["idempotent-monoid"], dom):
                (y,) = cod.objects
                for fa, fb in itertools.product(cod.morphisms, repeat=2):
                    mor_map = {"1": cod.identity[y], "a": fa, "b": fb}
                    fun = FinFunctor(dom, cod, {"x": y}, mor_map)
                    assert _composition_found(fun) == composition_violations(fun)
        return
    fun = _functor_subject(kind, data.draw(st.sampled_from(corpus_funs))[1])
    cod, mor_map = fun.cod, dict(fun.mor_map)
    for _ in range(data.draw(st.integers(1, 2))):
        m = data.draw(st.sampled_from(fun.dom.morphisms))
        fm = mor_map[m]
        mor_map[m] = data.draw(st.sampled_from(cod.hom(cod.src[fm], cod.tgt[fm])))
    broken = FinFunctor(fun.dom, cod, fun.obj_map, mor_map)
    assert _composition_found(broken) == composition_violations(broken)


def _tower_subjects(corpus_funs, pinned_depth_3) -> list[tuple[str, FinCat]]:
    """Every corpus category, J, E, E(rf) and E(lf) of every corpus functor,
    and the depth-3 pin, last."""
    subjects = list(CORPUS.items())
    for name, f in corpus_funs:
        ef = e_object(f)
        subjects += [(f"J {name}", j_object(f).j), (f"E {name}", ef.e)]
        subjects += [(f"E(rf) {name}", e_object(ef.rf).e), (f"E(lf) {name}", e_object(ef.lf).e)]
    subjects.append(("pinned", e_object(pinned_depth_3).e))
    return subjects


def test_generators_generate(corpus_funs, pinned_depth_3):
    subjects = _tower_subjects(corpus_funs, pinned_depth_3)
    pinned = subjects[-1][1]
    for name, c in subjects:
        gens = c.generators
        ids = {c.identity[x] for x in c.objects}
        assert composition_closure(c, gens) == set(c.morphisms), name
        assert not ids & set(gens), name
        composites = {gf for (g, f), gf in c.compose.items() if g not in ids and f not in ids}
        assert set(c.morphisms) - ids - composites <= set(gens), name
    assert (len(pinned.objects), len(pinned.morphisms), len(pinned.compose)) == (32, 1024, 32768)
    assert len(pinned.generators) == 34


def test_rows_and_pair_view_are_one_table(corpus_funs, pinned_depth_3):
    # The view counts the composable pairs; a table read back from pairs or
    # from JSON, or given a stray empty row, has equal rows and an equal key;
    # and one changed composite changes both.  A glued category is keyed by
    # its construction, so its table's key is that of a plain copy.
    for name, c in _tower_subjects(corpus_funs, pinned_depth_3):
        assert len(c.compose) == sum(len(c.out(c.tgt[f])) for f in c.morphisms), name
        plain = dataclasses.replace(c)
        assert plain.key == c.key or c.key[0] == "E", name
        rebuilt = dataclasses.replace(c, after=rows_from_pairs(dict(c.compose).items()))
        loaded = category_from_json(category_to_json(c))
        padded = dataclasses.replace(c, after={**c.after, "no-such-morphism": {}})
        for again in (rebuilt, loaded, padded):
            assert again == c and again.key == plain.key, name
        (g, f), gf = max(c.compose.items())
        other = next((m for m in c.morphisms if m != gf), gf + "*")
        changed = dataclasses.replace(c, after={**c.after, f: {**c.after[f], g: other}})
        assert changed != c and changed.key != plain.key, name


def _codiscrete(n: int, name) -> FinCat:
    """One morphism `name(a, b)` from each object a to each object b."""
    objs = [str(i) for i in range(n)]
    mor = {(a, b): name(a, b) for a in objs for b in objs}
    return FinCat(
        objects=tuple(objs),
        morphisms=tuple(mor.values()),
        src={m: a for (a, _), m in mor.items()},
        tgt={m: b for (_, b), m in mor.items()},
        identity={a: mor[(a, a)] for a in objs},
        after={mor[(a, b)]: {mor[(b, c)]: mor[(a, c)] for c in objs} for a, b in itertools.product(objs, repeat=2)},
    )


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize(
    "name", [lambda a, b: f"x{a}>x{b}", lambda a, b: f"m{b}{a}"], ids=["src-first", "tgt-first"]
)
def test_codiscrete_generators_follow_a_path(n, name):
    c = _codiscrete(n, name)
    assert validate_category(c).ok
    assert composition_closure(c, c.generators) == set(c.morphisms)
    assert len(c.generators) <= n + 1


def test_generators_meet_a_missing_composite():
    d = _chain_dict()
    del d["compose"][("a", "1_x")]
    assert _build(d).generators is None


@given(st.data())
def test_keys_are_canonical(corpus_funs, data):
    if data.draw(st.booleans()):
        # A copy: the glued depth-2 subject is keyed by its construction,
        # its copy by its table.
        old = dataclasses.replace(_assoc_subject(data.draw(st.sampled_from(sorted(CORPUS) + ["depth-2"]))))
        field = data.draw(st.sampled_from(("src", "tgt", "identity", "compose")))
    else:
        kind = data.draw(st.sampled_from(("corpus", "lf-depth-2")))
        old = _functor_subject(kind, data.draw(st.sampled_from(corpus_funs))[1])
        field = data.draw(st.sampled_from(("obj_map", "mor_map")))
    # The copy is filled in reverse order, so only its contents can match.
    table = dict(reversed(list(getattr(old, field).items())))
    key = data.draw(st.sampled_from(sorted(table)))
    value = data.draw(st.sampled_from(sorted(set(table.values()))))
    edit = data.draw(st.sampled_from(("add", "remove", "change")))
    if edit == "add":
        table[(key[0], key[1] + "*") if isinstance(key, tuple) else key + "*"] = value
    elif edit == "remove":
        del table[key]
    else:
        table[key] = value
    if field == "compose":
        new = dataclasses.replace(old, after=rows_from_pairs(table.items()))
    else:
        new = dataclasses.replace(old, **{field: table})
    assert (new.key == old.key) == (new == old)


def test_a_key_hashes_its_elements_once():
    class Counted:
        calls = 0

        def __hash__(self):
            Counted.calls += 1
            return 7

    element = Counted()
    key = _Key((element, "x"))
    assert hash(key) == hash(key) and Counted.calls == 1
    assert hash(key) == hash((element, "x"))


def _plain(key):
    """A copy of a key made of plain tuples all the way down."""
    return tuple(map(_plain, key)) if isinstance(key, tuple) else key


def test_keys_hash_and_compare_as_plain_tuples(corpus_funs, pinned_depth_3):
    funs = [f for _, f in corpus_funs]
    funs += [g for f in funs for g in (e_object(f).rf, e_object(f).lf)] + [pinned_depth_3]
    subjects = [c for _, c in _tower_subjects(corpus_funs, pinned_depth_3)] + funs
    for x in subjects:
        plain = _plain(x.key)
        assert type(plain) is tuple and plain == tuple(x.key)
        assert hash(x.key) == hash(tuple(x.key)) == hash(plain)
        assert x.key == tuple(x.key) and x.key == plain


def test_e_object_serves_an_equal_rebuilt_functor(corpus_funs):
    for name, f in corpus_funs:
        again = functor_from_json(functor_to_json(f))
        assert again is not f and again.key is not f.key and again.dom.key is not f.dom.key
        assert e_object(again) is e_object(f), name


def _brute_force_functors(dom: FinCat, cod: FinCat):
    """All functors, by filtering every raw assignment pair."""
    nonid = [m for m in dom.morphisms if not dom.is_identity(m)]
    found = []
    for objs in itertools.product(cod.objects, repeat=len(dom.objects)):
        obj_map = dict(zip(dom.objects, objs))
        for mors in itertools.product(cod.morphisms, repeat=len(nonid)):
            mor_map = {
                m: cod.identity[obj_map[dom.src[m]]] if dom.is_identity(m) else None
                for m in dom.morphisms
            }
            mor_map.update(dict(zip(nonid, mors)))
            ok = True
            for m in dom.morphisms:
                if (
                    cod.src[mor_map[m]] != obj_map[dom.src[m]]
                    or cod.tgt[mor_map[m]] != obj_map[dom.tgt[m]]
                ):
                    ok = False
                    break
            if ok:
                for (g, f), gf in dom.compose.items():
                    if cod.compose[(mor_map[g], mor_map[f])] != mor_map[gf]:
                        ok = False
                        break
            if ok:
                found.append(FinFunctor(dom=dom, cod=cod, obj_map=obj_map, mor_map=mor_map))
    return found


@pytest.mark.parametrize(
    "dname,cname",
    [
        ("interval", "interval"),
        ("parallel-pair", "interval"),
        ("interval", "walking-iso"),
        ("walking-retraction", "walking-retraction"),
        ("idempotent-monoid", "walking-retraction"),
    ],
)
def test_enumerate_functors_matches_brute_force(dname, cname):
    dom, cod = CORPUS[dname], CORPUS[cname]
    fast = enumerate_functors(dom, cod, 10**6)
    slow = _brute_force_functors(dom, cod)
    key = lambda f: (sorted(f.obj_map.items()), sorted(f.mor_map.items()))
    assert sorted(map(key, fast)) == sorted(map(key, slow))
    for f in fast:
        assert validate_functor(f).ok


def test_enumerate_functors_guard():
    wr = CORPUS["walking-retraction"]
    with pytest.raises(GuardExceededError):
        enumerate_functors(wr, wr, 3)


def test_identity_and_composition_of_functors():
    iv, wi = CORPUS["interval"], CORPUS["walking-iso"]
    for f in enumerate_functors(iv, wi, 10**6):
        assert compose_functors(f, identity_functor(iv)) == f
        assert compose_functors(identity_functor(wi), f) == f


def test_validate_functor_catches_identity_breakage():
    iv = CORPUS["interval"]
    f = identity_functor(iv)
    bad = FinFunctor(
        dom=iv, cod=iv,
        obj_map=dict(f.obj_map),
        mor_map={**f.mor_map, "1_0": "u"},
    )
    report = validate_functor(bad)
    assert any(v[0] in ("identity-preservation", "src-preservation", "tgt-preservation")
               for v in report.violations)


def test_validate_functor_reports_a_composite_that_is_no_morphism():
    # 1_1 . u = zz: the domain is not a category, so the sweep runs, and the
    # pair is reported instead of failing on the lookup of zz.
    iv = CORPUS["interval"]
    bad = dataclasses.replace(iv, after={**iv.after, "u": {"1_1": "zz"}})
    assert ("compose-unknown", "1_1", "u", "zz") in validate_category(bad).violations
    fun = FinFunctor(bad, iv, {x: x for x in iv.objects}, {m: m for m in iv.morphisms})
    assert validate_functor(fun).violations == (("composition-preservation", "1_1", "u"),)


def test_discrete_and_counit_inclusion():
    for c in CORPUS.values():
        d = discrete(c)
        assert validate_category(d).ok
        assert len(d.morphisms) == len(d.objects)
        iota = counit_inclusion(c)
        assert validate_functor(iota).ok
        assert all(iota.obj_map[a] == a for a in d.objects)


def test_validate_category_reports_duplicates():
    c = FinCat(
        objects=("x", "x"),
        morphisms=("1_x",),
        src={"1_x": "x"},
        tgt={"1_x": "x"},
        identity={"x": "1_x"},
        after={"1_x": {"1_x": "1_x"}},
    )
    report = validate_category(c)
    assert any(v[0] == "duplicate-object" for v in report.violations)


def test_validate_functor_pins_identity_preservation():
    # e.e = e, so sending 1_* to e keeps typing and every composite.
    mon = CORPUS["idempotent-monoid"]
    bad = FinFunctor(mon, mon, {"*": "*"}, {"1_*": "e", "e": "e"})
    assert validate_functor(bad).violations == (("identity-preservation", "*"),)


def _outcome(decide, *functors):
    try:
        return decide(*functors)
    except InputError:
        return InputError


def _by_composites(g, f, k, h=None):
    return same_functor(compose_functors(g, f), k if h is None else compose_functors(k, h))


def test_commutes_is_same_functor_of_the_composites(corpus_sqs):
    # Each square both ways round and against the next square, and legs
    # paired up that need not compose, in the 4- and the 3-argument form.
    seen = set()
    squares = [sq for _, sq in corpus_sqs]
    for sq, other in zip(squares, squares[1:] + squares[:1]):
        f, g, h, k = sq.left, sq.right, sq.top, sq.bottom
        gh = compose_functors(g, h)
        # Tables that are no functor's: one morphism left out, one object moved.
        partial = dataclasses.replace(gh, mor_map=dict(list(gh.mor_map.items())[1:]))
        moved = dataclasses.replace(gh, obj_map={**gh.obj_map, gh.dom.objects[0]: "?"})
        for case in (
            (k, f, g, h), (g, h, k, f), (k, f, other.right, other.top), (k, h, g, f),
            (h, f, other.bottom, other.left), (k, f, gh), (g, h, gh), (k, f, g), (g, f, k),
            (g, h, partial), (g, h, moved),
        ):
            want = _outcome(_by_composites, *case)
            assert _outcome(commutes, *case) == want
            outer, inner, right = case[0], case[1], case[-1]
            if want is InputError:
                seen.add("not composable")
            elif not (same_cat(inner.dom, right.dom) and same_cat(outer.cod, case[2].cod)):
                assert want is False
                seen.add("boundaries differ")
            else:
                seen.add("equal" if want else "tables differ")
    assert seen == {"equal", "tables differ", "boundaries differ", "not composable"}
