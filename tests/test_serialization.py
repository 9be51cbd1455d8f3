import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltalens.fixtures import CORPUS
from deltalens.kernel import FinCat, InputError, identity_functor, validate_category
from deltalens.lens import identity_lens
from deltalens.awfs import free_lens
from deltalens.serialization import (
    canonical_dumps,
    category_from_json,
    category_to_json,
    export_dot,
    functor_from_json,
    functor_to_json,
    lens_from_json,
    lens_to_json,
    load_payload,
    payload_kind,
    save_payload,
)


def test_category_round_trips_every_fixture():
    for name, c in CORPUS.items():
        assert category_from_json(category_to_json(c)) == c, name


def test_canonical_dump_is_idempotent(tmp_path):
    c = CORPUS["walking-retraction"]
    p1 = tmp_path / "one.json"
    p2 = tmp_path / "two.json"
    save_payload(str(p1), category_to_json(c))
    loaded = category_from_json(load_payload(str(p1)))
    save_payload(str(p2), category_to_json(loaded))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_functor_and_lens_round_trips():
    iv = CORPUS["interval"]
    f = identity_functor(iv)
    assert functor_from_json(functor_to_json(f)) == f
    l = free_lens(f)
    back = lens_from_json(lens_to_json(l))
    assert back.functor == l.functor and back.lifts == l.lifts


def test_payload_kind_detection():
    iv = CORPUS["interval"]
    assert payload_kind(category_to_json(iv)) == "category"
    assert payload_kind(functor_to_json(identity_functor(iv))) == "functor"
    assert payload_kind(lens_to_json(identity_lens(iv))) == "lens"


def test_missing_field_is_named():
    payload = category_to_json(CORPUS["interval"])
    del payload["identities"]
    with pytest.raises(InputError, match="identities"):
        category_from_json(payload)


def test_malformed_compose_entry_names_the_pair():
    payload = category_to_json(CORPUS["interval"])
    payload["compose"][0] = ["u", "1_0"]
    with pytest.raises(InputError, match="u"):
        category_from_json(payload)


def test_unknown_composite_is_left_to_the_validator():
    payload = category_to_json(CORPUS["interval"])
    payload["compose"].append(["ghost", "u", "u"])
    loaded = category_from_json(payload)
    report = validate_category(loaded)
    assert any(v[0] == "compose-unknown" for v in report.violations)


def test_load_payload_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    with pytest.raises(InputError):
        load_payload(str(p))
    with pytest.raises(InputError):
        load_payload(str(tmp_path / "absent.json"))


@given(st.text(alphabet="ab(),\\<>_ 01", min_size=1, max_size=8))
def test_exotic_object_names_survive_round_trips(name):
    ident = f"1_{name}"
    c = FinCat(
        objects=(name,),
        morphisms=(ident,),
        src={ident: name},
        tgt={ident: name},
        identity={name: ident},
        after={ident: {ident: ident}},
    )
    assert validate_category(c).ok
    again = category_from_json(json.loads(canonical_dumps(category_to_json(c))))
    assert again == c


def test_dot_export_shapes():
    iv = CORPUS["interval"]
    text = export_dot(iv)
    assert text.count("->") == 1
    assert '"0";' in text and '"1";' in text

    l = free_lens(identity_functor(iv))
    marked = export_dot(l.functor.dom, lens=l)
    assert marked.count("->") == 2
    assert marked.count("penwidth") == 1


def test_dot_export_checks_lens_base():
    iv, wi = CORPUS["interval"], CORPUS["walking-iso"]
    with pytest.raises(InputError):
        export_dot(iv, lens=identity_lens(wi))
