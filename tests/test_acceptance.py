"""End-to-end acceptance sweep.

Each test covers one shipped guarantee, prints one summary line, and
asserts both exactness and a wall-clock budget.  Heavy reference
computations live in oracles.py; nothing here trusts the construction
it is checking.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import brute_force_diagonals, compare_pushout

import deltalens
from deltalens.factorization import (
    comprehensive_factorise,
    is_discrete_opfibration,
    is_initial,
    orthogonal_lift,
)
from deltalens.fixtures import CORPUS
from deltalens.kernel import (
    GuardExceededError,
    compose_functors,
    identity_functor,
)
from deltalens.lens import validate_lens_morphism
from deltalens.search import enumerate_lens_structures, enumerate_r_algebra_structures
from deltalens.semimonad import jr_from_lens, lens_from_jr, validate_jr_morphism
from deltalens.awfs import (
    cofree_coalgebra,
    e_object,
    lens_to_r_algebra,
    lift_against_coalgebra,
    r_algebra_to_lens,
)
from deltalens.factorization import CommutingSquare
from deltalens.laws import run_laws


def test_criterion_1_comprehensive_factorisation(corpus_funs):
    t0 = time.monotonic()
    assert len(corpus_funs) >= 50
    for name, fun in corpus_funs:
        parts = comprehensive_factorise(fun)
        assert compose_functors(parts.m, parts.e) == fun, name
        assert is_initial(parts.e), name
        assert is_discrete_opfibration(parts.m), name
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"criterion 1: PASS ({len(corpus_funs)} functors factorised, {elapsed:.1f}s)")


def test_criterion_2_orthogonality_uniqueness(corpus_sqs):
    t0 = time.monotonic()
    eligible = 0
    for name, sq in corpus_sqs:
        if not (is_initial(sq.left) and is_discrete_opfibration(sq.right)):
            continue
        diagonals = brute_force_diagonals(sq)
        assert len(diagonals) == 1, name
        assert orthogonal_lift(sq) == diagonals[0], name
        eligible += 1
    elapsed = time.monotonic() - t0
    assert eligible >= 100
    assert elapsed < 60
    print(f"criterion 2: PASS ({eligible} squares, unique diagonals, {elapsed:.1f}s)")


def test_criterion_3_semimonad_laws(scope):
    t0 = time.monotonic()
    result = run_laws(scope, families=("semimonad",))
    elapsed = time.monotonic() - t0
    assert result.ok, result.failures[:3]
    assert len(result.cases) >= 50
    assert elapsed < 30
    print(f"criterion 3: PASS ({len(result.cases)} functors with squares, {elapsed:.1f}s)")


def test_criterion_4_pushout_normal_form(corpus_funs):
    t0 = time.monotonic()
    for name, fun in corpus_funs:
        assert compare_pushout(fun, e_object(fun)) == [], name
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"criterion 4: PASS ({len(corpus_funs)} normal forms match closure, {elapsed:.1f}s)")


def test_criterion_5_monad_comonad_distributive(scope):
    t0 = time.monotonic()
    result = run_laws(scope, families=("monad", "comonad", "distributive", "tower"))
    elapsed = time.monotonic() - t0
    assert result.ok, result.failures[:3]
    tower_cases = [c for c in result.cases if c.family == "tower"]
    assert len(tower_cases) >= 16
    assert elapsed < 120
    print(f"criterion 5: PASS ({len(result.cases)} cases incl. {len(tower_cases)} tower, {elapsed:.1f}s)")


def test_criterion_6_lens_algebra_bijection(corpus_funs):
    t0 = time.monotonic()
    eligible = 0
    for name, fun in corpus_funs:
        try:
            lenses = enumerate_lens_structures(fun, 4096)
            algebras = enumerate_r_algebra_structures(fun, 200_000)
        except GuardExceededError:
            continue
        eligible += 1
        assert len(lenses) == len(algebras), name
        enumerated = {a.structure.key for a in algebras}
        for l in lenses:
            alg = lens_to_r_algebra(l)
            assert alg.structure.key in enumerated, name
            assert r_algebra_to_lens(alg).lifts == l.lifts, name
        for a in algebras:
            assert lens_to_r_algebra(r_algebra_to_lens(a)).structure == a.structure, name
    dofs = 0
    for name, fun in corpus_funs:
        if is_discrete_opfibration(fun):
            assert len(enumerate_lens_structures(fun, 10**6)) == 1, name
            dofs += 1
    elapsed = time.monotonic() - t0
    assert eligible >= 60 and dofs >= 10
    assert elapsed < 120
    print(f"criterion 6: PASS ({eligible} bijections, {dofs} opfibrations unique, {elapsed:.1f}s)")


def test_criterion_7_lens_jr_correspondence(corpus_lens_list, corpus_sqs):
    t0 = time.monotonic()
    for name, l in corpus_lens_list:
        alg = jr_from_lens(l)
        assert lens_from_jr(alg).lifts == l.lifts, name
        assert jr_from_lens(lens_from_jr(alg)).structure == alg.structure, name
    by_key = {}
    for name, l in corpus_lens_list:
        by_key.setdefault(l.functor.key, []).append(l)
    agreements = matches = mismatches = 0
    for name, sq in corpus_sqs:
        for l1 in by_key.get(sq.left.key, ()):
            for l2 in by_key.get(sq.right.key, ()):
                lens_ok = validate_lens_morphism(sq, l1, l2).ok
                alg_ok = validate_jr_morphism(
                    sq, jr_from_lens(l1), jr_from_lens(l2)
                ).ok
                assert lens_ok == alg_ok, name
                agreements += 1
                matches += lens_ok
                mismatches += not lens_ok
    elapsed = time.monotonic() - t0
    assert matches > 50 and mismatches >= 10
    assert elapsed < 60
    print(
        f"criterion 7: PASS ({len(corpus_lens_list)} round trips; "
        f"{agreements} morphism checks agree, {elapsed:.1f}s)"
    )


def test_criterion_8_lifting_through_coalgebras(corpus_lens_list, corpus_sqs):
    t0 = time.monotonic()
    by_key = {}
    for name, l in corpus_lens_list:
        by_key.setdefault(l.functor.key, []).append(l)
    triples = 0
    for name, sq in corpus_sqs:
        for lens in by_key.get(sq.right.key, ()):
            f, g = sq.left, sq.right
            coalg = cofree_coalgebra(f)
            ef = e_object(f)
            lifted = CommutingSquare(
                ef.lf, g, sq.top, compose_functors(sq.bottom, ef.rf)
            )
            d = lift_against_coalgebra(lifted, coalg, lens)
            assert compose_functors(d, ef.lf) == lifted.top, name
            assert compose_functors(g, d) == lifted.bottom, name
            # q splits each object b into a pair (a, u), and d sends b to the
            # target of the chosen lift of bottom(u) at top(a).
            split = {x: p for p, x in e_object(coalg.functor).j.obj_id.items()}
            for b, x in coalg.structure.obj_map.items():
                a, u = split[x]
                target = lens.target(lifted.top.obj_map[a], lifted.bottom.mor_map[u])
                assert d.obj_map[b] == target, (name, b)
            triples += 1
    elapsed = time.monotonic() - t0
    assert triples >= 20
    assert elapsed < 60
    print(f"criterion 8: PASS ({triples} lifting triples solved, {elapsed:.1f}s)")


def test_criterion_9_free_lens():
    # That every corpus functor's free lens is lawful and free is the
    # `free-lens` family's check: `free_lens` raises unless its table obeys
    # the lens laws, and the family compares its R-algebra with (Rf, mu_f).
    t0 = time.monotonic()
    ef = e_object(identity_functor(CORPUS["interval"]))
    assert len(ef.e.objects) == 3
    assert len(ef.e.morphisms) == 5
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    print(f"criterion 9: PASS (E(interval) has 3 objects and 5 morphisms, {elapsed:.1f}s)")


# The distributive law on the identity of the cyclic group Z/n, a category
# with one object, is checked in a child process capped at 1 GB of address
# space, which prints its wall time, its peak RSS, the verdict, and the
# rows built of every coslice J(f) and glued E(f) table it holds, as
# [rows built, morphisms] summed over the tables of each kind.  The peak is
# VmHWM where Linux reports it: `ru_maxrss` keeps, across exec, the peak of
# the process that started the child, here the test runner.
_CYCLIC = """
import gc, json, re, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from deltalens.awfs import EfPresentation, validate_distributive_law
from deltalens.kernel import FinCat, identity_functor
from deltalens.semimonad import JPresentation
n = int(sys.argv[1])
ms = tuple(map(str, range(n)))
z = FinCat(("*",), ms, dict.fromkeys(ms, "*"), dict.fromkeys(ms, "*"), {"*": "0"},
           {f: {g: str((int(g) + int(f)) % n) for g in ms} for f in ms})
t0 = time.perf_counter()
ok = validate_distributive_law(identity_functor(z)).ok
wall = time.perf_counter() - t0
try:
    mb = int(re.search(r"VmHWM:\\s*(\\d+)", open("/proc/self/status").read())[1]) / 1024
except OSError:
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
gc.collect()
tables = {"coslice_rows": {}, "glued_rows": {}}
for o in gc.get_objects():
    if isinstance(o, JPresentation):
        tables["coslice_rows"][id(o.j)] = o.j
    elif isinstance(o, EfPresentation):
        tables["glued_rows"][id(o.e)] = o.e
rows = {kind: [sum(len(c._rows) for c in cs.values()), sum(len(c.morphisms) for c in cs.values())]
        for kind, cs in tables.items()}
print(json.dumps({"ok": ok, "wall_s": wall, "peak_rss_mb": mb, **rows}))
"""


def _cyclic_distributive_law(n: int) -> dict:
    path = [str(Path(deltalens.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", _CYCLIC, str(n)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


# [rows built, morphisms] of the coslice and the glued tables, pinned as
# they are deterministic where time and RSS are not.  Building every
# coslice row up front gives Z/3 3,033 coslice rows and 597 glued rows, as
# the eager J(f) of a functor into a glued category reads a base row per
# morphism.
_ROWS_BUILT = {3: ([297, 3033], [501, 39879]), 4: ([896, 20816], [1772, 526400])}


@pytest.mark.parametrize("n, wall_s, peak_rss_mb", [(3, 0.5, 60), (4, None, None)])
def test_distributive_law_on_a_cyclic_group_within_budget(n, wall_s, peak_rss_mb):
    # Z/3's depth-3 glued categories have 19,683 morphisms each and Z/4's
    # 262,144; the check reads a few rows of each.
    run = _cyclic_distributive_law(n)
    assert run["ok"]
    if wall_s is not None:
        assert run["wall_s"] < wall_s
        assert run["peak_rss_mb"] < peak_rss_mb
    assert (run["coslice_rows"], run["glued_rows"]) == _ROWS_BUILT[n]
    print(f"Z/{n} distributive law: ok in {run['wall_s']:.2f}s at {run['peak_rss_mb']:.0f} MB")
