import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import deltalens
from deltalens import laws
from deltalens.cli import cmd_laws, main
from deltalens.fixtures import CORPUS
from deltalens.kernel import DEFAULT_GUARD, identity_functor
from deltalens.laws import LawScope
from deltalens.lens import identity_lens
from deltalens.serialization import category_to_json, functor_to_json, lens_to_json


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtins(capsys):
    code, out, err = run(
        ["validate", "interval", "id:walking-iso", "free-lens:id:interval"], capsys
    )
    assert code == 0
    assert out.count("ok:") == 3


def test_unknown_reference_is_an_input_error(capsys):
    code, out, err = run(["validate", "no-such-entry"], capsys)
    assert code == 2
    assert "unknown" in err


def test_validate_reports_violations(tmp_path, capsys):
    payload = {
        "objects": ["x"],
        "morphisms": [{"id": "1_x", "src": "x", "tgt": "x"}],
        "identities": {"x": "1_x"},
        "compose": [],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    code, out, err = run(["validate", str(p)], capsys)
    assert code == 1
    assert "missing-composite" in out


def test_jf_and_factorise_write_canonical_files(tmp_path, capsys):
    out_j = tmp_path / "jf.json"
    code, out, _ = run(["jf", "id:interval", "--out", str(out_j)], capsys)
    assert code == 0
    assert "3 objects, 4 morphisms" in out
    first = out_j.read_bytes()
    code, _, _ = run(["jf", "id:interval", "--out", str(out_j)], capsys)
    assert code == 0
    assert out_j.read_bytes() == first

    out_e = tmp_path / "e.json"
    out_m = tmp_path / "m.json"
    code, _, _ = run(
        ["factorise", "iota:interval", "--out-e", str(out_e), "--out-m", str(out_m)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["validate", str(out_e), str(out_m)], capsys)
    assert code == 0


def test_free_lens_command(tmp_path, capsys):
    out_l = tmp_path / "lens.json"
    code, out, _ = run(["free-lens", "id:interval", "--out", str(out_l)], capsys)
    assert code == 0
    assert "3 objects, 5 morphisms" in out
    code, out, _ = run(["validate", str(out_l)], capsys)
    assert code == 0


def test_lift_modes_and_failure(capsys):
    code, out, _ = run(
        ["lift", "--left", "s:id:interval", "--right", "t:id:interval",
         "--top", "s:id:interval", "--bottom", "t:id:interval"],
        capsys,
    )
    assert code == 0
    assert "diagonal objects" in out

    code, _, err = run(
        ["lift", "--left", "iota:interval", "--right", "id:interval",
         "--top", "iota:interval", "--bottom", "id:interval"],
        capsys,
    )
    assert code == 1

    code, out, _ = run(
        ["lift", "--coalgebra", "cofree:id:interval",
         "--lens", "free-lens:id:interval",
         "--top", "lf:id:interval", "--bottom", "rf:id:interval"],
        capsys,
    )
    assert code == 0


def test_lift_against_a_coalgebra_writes_the_checked_in_bytes(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, stdout, _ = run(
        ["lift", "--coalgebra", "cofree:id:interval", "--lens", "id-lens:interval",
         "--top", "id:interval", "--bottom", "rf:id:interval", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout.startswith("diagonal objects: (0,1_0)->0, (0,u)->1, (1,1_1)->1\n")
    expected = Path(__file__).resolve().parent / "data" / "lift_cofree_id_interval.json"
    assert out.read_bytes() == expected.read_bytes()


def test_enumerate_command(tmp_path, capsys):
    code, out, _ = run(["enumerate", "dofs", "walking-iso", "walking-iso"], capsys)
    assert code == 0
    assert "dofs: 2" in out
    out_dir = tmp_path / "found"
    code, out, _ = run(
        ["enumerate", "lenses", "id:terminal", "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert (out_dir / "lenses-0.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "functors", "interval"],
        ["enumerate", "functors", "interval", "interval", "interval"],
        ["enumerate", "dofs", "interval"],
        ["enumerate", "dofs", "interval", "interval", "interval"],
        ["enumerate", "squares", "id:interval"],
        ["enumerate", "squares", "id:interval", "id:interval", "id:interval"],
        *(
            argv
            for kind in ("lenses", "jr-algebras", "r-algebras", "l-coalgebras")
            for argv in (["enumerate", kind], ["enumerate", kind, "id:terminal", "id:terminal"])
        ),
        ["--guard", "0", "laws"],
        ["--guard", "-5", "laws"],
    ],
)
def test_bad_arity_and_guard_are_input_errors(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())


def test_laws_subset_runs_only_requested_families(capsys):
    code, out, _ = run(["laws", "--families", "factorisation"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if " cases, " in l]
    assert len(lines) == 1 and lines[0].startswith("factorisation:")
    assert "suite: ok" in out


def test_laws_rejects_unknown_family(capsys):
    # No family runs when a name is unknown, not even the known one before it.
    code, out, err = run(["laws", "--families", "fixtures,nonsense"], capsys)
    assert (code, out, err) == (2, "", "error: unknown law family: 'nonsense'\n")


@pytest.mark.parametrize("families", ["", ","])
def test_laws_rejects_an_empty_family_name(families, capsys):
    # An empty list names the empty family; it does not mean every family.
    code, out, err = run(["laws", "--families", families], capsys)
    assert (code, out, err) == (2, "", "error: unknown law family: ''\n")


def test_laws_reports_broken_corpus_entries(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "junk.json").write_text("{nope")
    payload = {
        "objects": ["x"],
        "morphisms": [{"id": "1_x", "src": "x", "tgt": "x"}],
        "identities": {"x": "1_x"},
        "compose": [],
    }
    (corpus / "lawless.json").write_text(json.dumps(payload))
    code, out, _ = run(
        ["--corpus", str(corpus), "laws", "--families", "fixtures"], capsys
    )
    assert code == 1
    assert "FAIL fixtures junk" in out
    assert "FAIL fixtures lawless" in out
    assert "missing-composite" in out


def test_laws_over_a_corpus_stops_when_a_check_runs_out_of_memory(tmp_path, capsys, monkeypatch):
    # The fixtures family validates the corpus file's category among the
    # builtins; the first category it reaches raises MemoryError.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert run(["jf", "id:terminal", "--out", str(corpus / "extra.json")], capsys)[0] == 0

    def out_of_memory(c):
        raise MemoryError

    monkeypatch.setattr(laws, "validate_category", out_of_memory)
    code, out, err = run(["--corpus", str(corpus), "laws", "--families", "fixtures"], capsys)
    assert (code, out, err) == (2, "suite: stopped\n", "error: out of resources in fixtures discrete-pair: MemoryError\n")


def test_corpus_names_that_look_like_functor_names_do_not_crash_the_squares(tmp_path, capsys):
    # Square corners are read off the fixture categories, so file names
    # holding the "->" and "#" of functor names are only names.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("interval->walking-iso.json", "interval#x.json"):
        assert run(["jf", "id:terminal", "--out", str(corpus / name)], capsys)[0] == 0
    code, out, _ = run(
        ["--corpus", str(corpus), "laws", "--families", "fixtures,orthogonality"], capsys
    )
    assert code == 0
    assert out.splitlines()[-1] == "suite: ok"


def test_laws_that_check_nothing_exit_1(capsys):
    args = argparse.Namespace(families="fixtures", seed=None)
    assert cmd_laws(args, LawScope({}, DEFAULT_GUARD, {})) == 1
    assert capsys.readouterr().out == "suite: nothing checked\n"


def test_tiny_guard_reports_a_partial_suite(capsys):
    code, out, _ = run(["--guard", "1", "laws", "--families", "distributive"], capsys)
    assert code == 0
    assert "distributive: 9 cases, 0 failures" in out
    assert out.splitlines()[-1] == "suite: partial, 40 of 49 fixture pairs skipped by the guard"


@pytest.mark.parametrize("family", ["orthogonality", "semimonad", "monad", "comonad"])
def test_tiny_guard_skips_squares_it_cannot_enumerate(family, capsys):
    code, out, _ = run(["--guard", "3", "laws", "--families", family], capsys)
    assert code == 0
    assert f"{family}: " in out
    assert out.splitlines()[-1] == "suite: partial, 33 of 49 fixture pairs skipped by the guard"


def test_seed_only_shuffles_execution_order(capsys):
    code1, out1, _ = run(["laws", "--families", "fixtures,coalgebra", "--seed", "1"], capsys)
    code2, out2, _ = run(["laws", "--families", "fixtures,coalgebra", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_export_dot_output(capsys):
    code, out, _ = run(["export-dot", "interval"], capsys)
    assert code == 0
    assert out.count("->") == 1

    code, out, _ = run(["export-dot", "free-lens:id:interval"], capsys)
    assert code == 0
    assert "penwidth" in out

    code, out, _ = run(["export-dot", "ef:id:interval"], capsys)
    assert code == 0
    assert len([l for l in out.splitlines() if '";' in l]) == 3
    assert out.count("->") == 2


def test_fixture_names_win_over_files_of_the_same_name(tmp_path, monkeypatch, capsys):
    argvs = (
        ["validate", "interval"],
        ["export-dot", "interval"],
        ["jf", "id:interval"],
        ["validate", "discrete:interval"],
    )
    monkeypatch.chdir(tmp_path)
    before = [run(argv, capsys) for argv in argvs]
    (tmp_path / "interval").write_text(json.dumps(category_to_json(CORPUS["terminal"])))
    assert [run(argv, capsys) for argv in argvs] == before
    assert before[0] == (0, "ok: interval (category, 2 objects, 3 morphisms)\n", "")
    # The file is still read through a path that is not a name.
    code, out, _ = run(["validate", "./interval"], capsys)
    assert (code, out) == (0, "ok: ./interval (category, 1 objects, 1 morphisms)\n")
    code, out, _ = run(["export-dot", "./interval"], capsys)
    assert code == 0 and out.count("->") == 0
    # Names win in functor positions too: a functor file called interval
    # does not stand in for the category of that name.
    (tmp_path / "interval").write_text(
        json.dumps(functor_to_json(identity_functor(CORPUS["terminal"]))))
    code, _, err = run(["jf", "interval"], capsys)
    assert code == 2 and "interval does not hold a functor" in err
    code, out, _ = run(["jf", "./interval"], capsys)
    assert (code, out) == (0, "jf: 1 objects, 1 morphisms\n")


def test_a_broken_corpus_file_owns_its_name(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "interval.json").write_text("{nope")
    ws = ["--corpus", str(corpus)]
    code, out, _ = run([*ws, "validate", "interval"], capsys)
    assert code == 1 and out.startswith("FAIL: interval (category)\nviolation: interval: load-error")
    for argv in (["jf", "id:interval"], ["export-dot", "interval"]):
        code, out, err = run([*ws, *argv], capsys)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: category interval fails validation: load-error"), argv
    code, out, _ = run([*ws, "laws", "--families", "fixtures"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "fixtures: 7 cases, 1 failures"
    assert [l.split()[2] for l in out.splitlines() if l.startswith("FAIL ")] == ["interval"]


def test_repeated_main_calls_do_not_affect_each_other(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "extra.json").write_text(json.dumps(category_to_json(CORPUS["interval"])))
    argvs = (
        ["--guard", "3", "laws", "--families", "orthogonality"],
        ["laws", "--families", "fixtures"],
        ["--corpus", str(corpus), "laws", "--families", "fixtures"],
        ["validate", "interval"],
        ["enumerate", "lenses", "id:terminal", "--out", str(tmp_path / "out")],
        ["--help"],
        ["--guard", "many", "laws"],
    )

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit on --help or a bad value
            code = exc.code
        return code, capsys.readouterr().out

    forward = {tuple(argv): call(argv) for argv in argvs}
    backward = {tuple(argv): call(argv) for argv in reversed(argvs)}
    assert forward == backward
    results = list(forward.values())
    assert [code for code, _ in results] == [0, 0, 0, 0, 0, 0, 2]
    assert results[0][1].splitlines()[-1].startswith("suite: partial")
    assert results[1][1].endswith("suite: ok\n")
    assert results[2][1] == results[1][1].replace(
        f"fixtures: {len(CORPUS)} cases", f"fixtures: {len(CORPUS) + 1} cases")
    assert results[5][1].startswith("usage: deltalens")


@pytest.mark.parametrize(
    "argv",
    [
        ["export-dot", "@lens"],
        ["export-dot", "interval", "--lens", "@lens"],
        ["lift", "--coalgebra", "cofree:id:interval", "--lens", "@lens",
         "--top", "lf:id:interval", "--bottom", "rf:id:interval"],
    ],
)
def test_lens_file_with_a_malformed_functor_is_an_input_error(argv, tmp_path, capsys):
    payload = lens_to_json(identity_lens(CORPUS["walking-iso"]))
    del payload["functor"]["on_objects"]["0"]
    path = tmp_path / "lens.json"
    path.write_text(json.dumps(payload))
    code, _, err = run([str(path) if a == "@lens" else a for a in argv], capsys)
    assert code == 2
    assert err.startswith("error: lens ") and "obj-map-missing 0" in err


def test_repeated_compose_row_or_lift_is_an_input_error(tmp_path, capsys):
    # Either e.e row alone gives a lawful category (Z/2 or an idempotent),
    # so only the loader can catch the repeat.
    cat = {
        "objects": ["x"],
        "morphisms": [{"id": "1", "src": "x", "tgt": "x"}, {"id": "e", "src": "x", "tgt": "x"}],
        "identities": {"x": "1"},
        "compose": [["1", "1", "1"], ["1", "e", "e"], ["e", "1", "e"], ["e", "e", "1"], ["e", "e", "e"]],
    }
    lens = lens_to_json(identity_lens(CORPUS["interval"]))
    lens["lifts"].append(dict(lens["lifts"][0], lift="u"))
    for name, payload, message in (
        ("cat.json", cat, "compose has more than one entry for ['e', 'e']"),
        ("lens.json", lens, "lens has more than one lift for ['0', '1_0']"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        code, out, err = run(["validate", str(path)], capsys)
        assert code == 2, name
        assert out == "" and err.startswith("error: ") and message in err, name


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe", "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
        (b"1" * 5_000, "is not valid JSON: Exceeds the limit"),
    ],
    ids=["not-utf-8", "deeply-nested", "long-integer"],
)
def test_undecodable_file_is_an_input_error(content, message, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "bad.json"
    path.write_bytes(content)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: {path} {message}")
    code, out, _ = run(["--corpus", str(corpus), "laws", "--families", "fixtures"], capsys)
    assert code == 1
    assert f"FAIL fixtures bad :: load-error {path} {message}" in out


@pytest.mark.parametrize(
    "field, key", [("identities", "*"), ("on_objects", "*"), ("on_morphisms", "1_*")]
)
def test_repeated_json_key_is_an_input_error(field, key, tmp_path, capsys):
    # json keeps the last of repeated keys, and the last entry here is the
    # lawful one, so only the loader can catch the repeat.
    fun = identity_functor(CORPUS["terminal"])
    payload = category_to_json(fun.dom) if field == "identities" else functor_to_json(fun)
    text = json.dumps(payload)
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(f'"{field}": {{', f'"{field}": {{"{key}": "junk", ', 1))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2
    assert out == "" and err == f"error: {path}: a JSON object repeats the key '{key}'\n"


def test_console_script_entry_point():
    # The child imports the same package as this process, installed or not.
    path = [str(Path(deltalens.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "deltalens.cli", "validate", "terminal"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "ok: terminal" in proc.stdout


# -- fuzzing the command line -------------------------------------------------

# Each subcommand with the options it takes a value for.
OPTIONS = {
    "validate": (),
    "factorise": ("--out-e", "--out-m"),
    "jf": ("--out", "--out-s", "--out-t"),
    "free-lens": ("--out",),
    "lift": ("--top", "--bottom", "--left", "--right", "--coalgebra", "--lens", "--out"),
    "laws": ("--seed",),
    "enumerate": ("--out",),
    "export-dot": ("--lens", "--name", "--out"),
}
KINDS = ("functors", "dofs", "squares", "lenses", "jr-algebras", "r-algebras", "l-coalgebras")
REFERENCES = (
    "id:interval", "iota:interval", "id:terminal", "s:id:interval", "t:id:interval",
    "lf:id:interval", "rf:id:interval", "terminal", "interval", "discrete-pair",
    "walking-iso", "jf:id:interval", "ef:id:terminal", "discrete:interval",
    "free-lens:id:interval", "dof:iota:interval", "id-lens:terminal",
    "cofree:id:interval", "rf:", "id:", "@file",
)
# Junk holds no path separator, so every file the CLI writes lands in the
# example's own directory; "no-dir/x.json" names a missing directory.
JUNK = st.one_of(
    st.sampled_from(("", "-", "--", "0", "-1", "1", "50", "many", ".", "out.json", "no-dir/x.json")),
    st.text(alphabet="ab:_.#@, 01-", max_size=6),
)
OUTPUTS = st.sampled_from(("out.json", ".", "", "no-dir/x.json", "@file"))
WORDS = st.one_of(st.sampled_from(REFERENCES), st.sampled_from(REFERENCES), st.just("@file"), JUNK)
TOKENS = st.one_of(
    WORDS,
    st.sampled_from(sorted(OPTIONS)),
    st.sampled_from(KINDS),
    st.sampled_from(sorted({o for opts in OPTIONS.values() for o in opts} | {"--help"})),
)
FIELDS = (
    "objects", "morphisms", "identities", "compose", "id", "src", "tgt", "dom", "cod",
    "on_objects", "on_morphisms", "functor", "lifts", "object", "over", "lift",
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(alphabet="ab01_", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
VALID = (
    category_to_json(CORPUS["interval"]),
    functor_to_json(identity_functor(CORPUS["interval"])),
    lens_to_json(identity_lens(CORPUS["walking-iso"])),
)


@st.composite
def payloads(draw):
    """Random JSON, or a real category, functor or lens file with one
    field, at any depth, replaced by random JSON or deleted."""
    if draw(st.booleans()):
        return draw(JSON)
    payload = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    node = payload
    while isinstance(node, dict) and node:
        key = draw(st.sampled_from(sorted(node)))
        if not isinstance(node[key], dict) or draw(st.booleans()):
            if draw(st.integers(0, 3)) == 0:
                del node[key]
            else:
                node[key] = draw(JSON)
            break
        node = node[key]
    return payload


@st.composite
def argvs(draw):
    """A subcommand with entries and option values drawn from references
    and junk, sometimes with a stray token or a global option."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command == "enumerate":
        argv.append(draw(st.sampled_from(KINDS)))
    entries = {"validate": (1, 3), "enumerate": (0, 3), "laws": (0, 0), "lift": (0, 0)}
    low, high = entries.get(command, (1, 1))
    argv += draw(st.lists(WORDS, min_size=low, max_size=high))
    for option in draw(st.lists(st.sampled_from(OPTIONS[command]), unique=True)) if OPTIONS[command] else ():
        argv += [option, draw(OUTPUTS if option.startswith("--out") else WORDS)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(TOKENS))
    if draw(st.integers(0, 3)) == 0:
        argv = ["--guard", draw(st.sampled_from(("1", "3", "50", "0", "-1", "many")))] + argv
    if draw(st.integers(0, 5)) == 0:
        argv = ["--corpus", draw(st.sampled_from((".", "no-dir", "@file")))] + argv
    if "laws" in argv:
        argv += ["--families", "fixtures"]  # the one family that runs in seconds
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), payload=payloads())
def test_cli_never_raises_and_exits_0_1_or_2(tmp_path_factory, argv, payload):
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "file.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = [str(path) if token == "@file" else token for token in argv]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit on a malformed argv
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
