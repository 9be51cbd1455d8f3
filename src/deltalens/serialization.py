"""JSON and DOT views of categories, functors, and lenses.

The JSON forms are shape-checked on load but not law-checked; run the
validators to get a report on the loaded value.  Saves are canonical:
sorted keys, two-space indent, newline terminated, so that re-saving
an unchanged value is byte-stable.
"""

from __future__ import annotations

import json

from .kernel import FinCat, FinFunctor, InputError, rows_from_pairs
from .lens import DeltaLens, LiftingTable


def category_to_json(c: FinCat) -> dict:
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m, "src": c.src[m], "tgt": c.tgt[m]} for m in c.morphisms
        ],
        "identities": {x: c.identity[x] for x in sorted(c.identity)},
        "compose": sorted([g, f, gf] for f, row in c.after.items() for g, gf in row.items()),
    }


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _str_dict(value, what: str) -> dict[str, str]:
    _expect(isinstance(value, dict), f"{what} must be an object")
    for k, v in value.items():
        _expect(isinstance(k, str) and isinstance(v, str), f"{what} entries must be strings")
    return dict(value)


def category_from_json(d) -> FinCat:
    _expect(isinstance(d, dict), "category must be an object")
    for key in ("objects", "morphisms", "identities", "compose"):
        _expect(key in d, f"category is missing the '{key}' field")
    objs = d["objects"]
    _expect(
        isinstance(objs, list) and all(isinstance(x, str) for x in objs),
        "category objects must be a list of strings",
    )
    mors = d["morphisms"]
    _expect(isinstance(mors, list), "category morphisms must be a list")
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    ids: list[str] = []
    for entry in mors:
        _expect(
            isinstance(entry, dict) and set(entry) == {"id", "src", "tgt"},
            "each morphism must be an object with 'id', 'src', and 'tgt'",
        )
        m, s, t = entry["id"], entry["src"], entry["tgt"]
        _expect(
            isinstance(m, str) and isinstance(s, str) and isinstance(t, str),
            "morphism fields must be strings",
        )
        ids.append(m)
        src[m] = s
        tgt[m] = t
    identity = _str_dict(d["identities"], "category identities")
    table = d["compose"]
    _expect(isinstance(table, list), "category compose must be a list")

    def entries():
        for row in table:
            if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
                raise InputError(f"compose entry {row!r} must be a list [g, f, gf] of strings")
            yield (row[0], row[1]), row[2]

    return FinCat(tuple(objs), tuple(ids), src, tgt, identity, rows_from_pairs(entries()))


def functor_to_json(fun: FinFunctor) -> dict:
    return {
        "dom": category_to_json(fun.dom),
        "cod": category_to_json(fun.cod),
        "on_objects": {x: fun.obj_map[x] for x in sorted(fun.obj_map)},
        "on_morphisms": {m: fun.mor_map[m] for m in sorted(fun.mor_map)},
    }


def functor_from_json(d) -> FinFunctor:
    _expect(isinstance(d, dict), "functor must be an object")
    for key in ("dom", "cod", "on_objects", "on_morphisms"):
        _expect(key in d, f"functor is missing the '{key}' field")
    return FinFunctor(
        category_from_json(d["dom"]),
        category_from_json(d["cod"]),
        _str_dict(d["on_objects"], "functor on_objects"),
        _str_dict(d["on_morphisms"], "functor on_morphisms"),
    )


def lens_to_json(l: DeltaLens) -> dict:
    return {
        "functor": functor_to_json(l.functor),
        "lifts": [
            {"object": a, "over": u, "lift": m}
            for (a, u), m in sorted(l.lifts.entries.items())
        ],
    }


def lens_from_json(d) -> DeltaLens:
    _expect(isinstance(d, dict), "lens must be an object")
    for key in ("functor", "lifts"):
        _expect(key in d, f"lens is missing the '{key}' field")
    fun = functor_from_json(d["functor"])
    _expect(isinstance(d["lifts"], list), "lens lifts must be a list")
    entries: dict[tuple[str, str], str] = {}
    for entry in d["lifts"]:
        _expect(
            isinstance(entry, dict) and set(entry) == {"object", "over", "lift"},
            "each lift must be an object with 'object', 'over', and 'lift'",
        )
        a, u, m = entry["object"], entry["over"], entry["lift"]
        _expect(
            isinstance(a, str) and isinstance(u, str) and isinstance(m, str),
            "lift fields must be strings",
        )
        if (a, u) in entries:
            raise InputError(f"lens has more than one lift for {[a, u]!r}")
        entries[(a, u)] = m
    return DeltaLens(fun, LiftingTable(entries))


def payload_kind(d) -> str:
    """Classify a loaded JSON value as category, functor, or lens."""
    if isinstance(d, dict):
        if "lifts" in d:
            return "lens"
        if "on_objects" in d:
            return "functor"
        if "objects" in d:
            return "category"
    raise InputError("value is not a category, functor, or lens")


def canonical_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def save_payload(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(payload))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a repeated key, which `json` would
    otherwise resolve silently by keeping the last value."""
    out = dict(pairs)
    if len(out) != len(pairs):
        seen: set[str] = set()
        for k, _ in pairs:
            if k in seen:
                raise InputError(f"a JSON object repeats the key {k!r}")
            seen.add(k)
    return out


def load_payload(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except ValueError as exc:  # bad syntax, bytes that are not UTF-8, an over-long integer
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to load") from None


# -- DOT ----------------------------------------------------------------------


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(c: FinCat, lens: DeltaLens | None = None, name: str = "category") -> str:
    """Graphviz text: objects as nodes, non-identity morphisms as
    labelled edges.  With a lens over this category, its chosen
    non-identity lifts are drawn heavier."""
    chosen: set[str] = set()
    if lens is not None:
        if lens.functor.dom is not c and lens.functor.dom != c:
            raise InputError("lens does not live over the exported category")
        chosen = {m for m in lens.lifts.entries.values() if not c.is_identity(m)}
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=LR;"]
    for x in c.objects:
        lines.append(f"  {_dot_quote(x)};")
    for m in c.nonidentity:
        attrs = [f"label={_dot_quote(m)}"]
        if m in chosen:
            attrs.append("penwidth=2")
            attrs.append("color=blue")
        lines.append(
            f"  {_dot_quote(c.src[m])} -> {_dot_quote(c.tgt[m])} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
