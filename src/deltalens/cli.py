"""Command line surface.

Subcommands: validate, factorise, jf, free-lens, lift, laws, enumerate,
export-dot.  Exit codes: 0 success, 1 law failure, 2 input error or a
`laws` run stopped by running out of memory or recursion depth.

Every entry reference is resolved the same way, in this order:

  1. a name: a builtin fixture or a `--corpus` category;
  2. a prefix applied to a reference, from `_PREFIXES`:
       categories   jf:FUNREF | ef:FUNREF | discrete:CATREF
       functors     id:CATREF | iota:CATREF | s:FUNREF | t:FUNREF
                    | lf:FUNREF | rf:FUNREF
       lenses       free-lens:FUNREF | dof:FUNREF | id-lens:CATREF
  3. a JSON file holding a category, a functor or a lens.

So a name or a prefix wins over a file of the same name in every
position; `./NAME` reaches the file.  A corpus file owns its name whether
it loads or not: a broken `interval.json` hides the builtin `interval`.

`main(argv)` may be called repeatedly in one process: the argument
parser is built once, at import, and each call parses its own argv into
a fresh namespace.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .kernel import (
    DEFAULT_GUARD,
    ContractError,
    FinCat,
    FinFunctor,
    GuardExceededError,
    InputError,
    InternalInvariantError,
    ValidationReport,
    counit_inclusion,
    discrete,
    enumerate_functors,
    identity_functor,
    validate_category,
    validate_functor,
)
from .factorization import CommutingSquare, comprehensive_factorise, orthogonal_lift
from .fixtures import CORPUS
from .lens import (
    DeltaLens,
    identity_lens,
    lens_from_discrete_opfibration,
    validate_lens,
)
from .semimonad import j_object
from .awfs import cofree_coalgebra, e_object, free_lens, lift_against_coalgebra
from .laws import FAMILIES, LawScope, run_laws
from .search import (
    discrete_opfibrations,
    enumerate_commuting_squares,
    enumerate_jr_algebras,
    enumerate_l_coalgebras,
    enumerate_lens_structures,
    enumerate_r_algebra_structures,
)
from .serialization import (
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


def build_workspace(corpus_dir: str | None, guard: int) -> LawScope:
    """The names every command resolves.  A `--corpus` file owns its name
    whether it loads or not: a broken one hides the builtin of that name."""
    if guard <= 0:
        raise InputError(f"guard must be positive, got {guard}")
    fixtures = dict(CORPUS)
    broken: dict[str, tuple] = {}
    if corpus_dir is not None:
        root = Path(corpus_dir)
        if not root.is_dir():
            raise InputError(f"corpus path is not a directory: {corpus_dir}")
        for path in sorted(root.glob("*.json")):
            name = path.stem
            fixtures.pop(name, None)
            try:
                payload = load_payload(str(path))
                if payload_kind(payload) != "category":
                    raise InputError("corpus entries must be category files")
                cat = category_from_json(payload)
            except InputError as exc:
                broken[name] = (("load-error", str(exc)),)
                continue
            report = validate_category(cat)
            if report.ok:
                fixtures[name] = cat
            else:
                broken[name] = report.violations[:8]
    return LawScope(fixtures=fixtures, guard=guard, broken=broken)


# prefix -> (kind it builds, kind of the reference after it, construction)
_PREFIXES = {
    "jf": ("category", "functor", lambda f: j_object(f).j),
    "ef": ("category", "functor", lambda f: e_object(f).e),
    "discrete": ("category", "category", discrete),
    "id": ("functor", "category", identity_functor),
    "iota": ("functor", "category", counit_inclusion),
    "s": ("functor", "functor", lambda f: j_object(f).s),
    "t": ("functor", "functor", lambda f: j_object(f).t),
    "lf": ("functor", "functor", lambda f: e_object(f).lf),
    "rf": ("functor", "functor", lambda f: e_object(f).rf),
    "free-lens": ("lens", "functor", free_lens),
    "dof": ("lens", "functor", lens_from_discrete_opfibration),
    "id-lens": ("lens", "category", identity_lens),
}


def _load_entry(path: str) -> tuple[str, FinCat | FinFunctor | DeltaLens, ValidationReport]:
    """Load a category, functor or lens file as (kind, value, report).

    The checks run in stages: the categories, then the functor, then
    the lifts, each only when the one before held, so every check sees
    the well-formed input it needs.
    """
    payload = load_payload(path)
    kind = payload_kind(payload)
    if kind == "category":
        value = category_from_json(payload)
        return kind, value, validate_category(value)
    value = functor_from_json(payload) if kind == "functor" else lens_from_json(payload)
    fun = value if kind == "functor" else value.functor
    report = validate_category(fun.dom).merged(validate_category(fun.cod))
    if report.ok:
        report = validate_functor(fun)
    if report.ok and kind == "lens":
        report = validate_lens(value)
    return kind, value, report


def _entry(ref: str, ws: LawScope) -> tuple[str, object, ValidationReport | None]:
    """What `ref` names, as (kind, value, report): a fixture or corpus
    name, else a prefix, else a file.  The report is None when the value
    has not been checked yet (names and prefixes); a broken corpus name
    has no value, only its report."""
    if ref in ws.fixtures:
        return "category", ws.fixtures[ref], None
    if ref in ws.broken:
        return "category", None, ValidationReport.from_violations(ws.broken[ref])
    head, colon, rest = ref.partition(":")
    if colon and head in _PREFIXES:
        kind, inner, build = _PREFIXES[head]
        return kind, build(resolve(rest, ws, inner)), None
    if Path(ref).is_file():
        return _load_entry(ref)
    raise InputError(f"unknown reference: {ref!r}")


def resolve(ref: str, ws: LawScope, *kinds: str):
    """The value `ref` names, which must be one of `kinds` and, when it was
    loaded or is a corpus name, must have passed its checks."""
    kind, value, report = _entry(ref, ws)
    if kind not in kinds:
        raise InputError(f"{ref} does not hold a {' or a '.join(kinds)}")
    if report is not None and not report.ok:
        raise InputError(f"{kind} {ref} fails validation: {report.first}")
    return value


def _save(payload: dict, out: str | None) -> None:
    if out is not None:
        save_payload(out, payload)
        print(f"wrote {out}")


def _print_violations(report: ValidationReport, label: str) -> None:
    for v in report.violations:
        print(f"violation: {label}: " + " ".join(str(p) for p in v))


# kind -> (validator, one-line description of a valid value)
_KINDS = {
    "category": (validate_category,
                 lambda c: f"{len(c.objects)} objects, {len(c.morphisms)} morphisms"),
    "functor": (validate_functor, lambda f: f"{len(f.obj_map)} objects mapped"),
    "lens": (validate_lens, lambda l: f"{len(l.lifts.entries)} lifts"),
}


def cmd_validate(args, ws: LawScope) -> int:
    worst = 0
    for ref in args.entry:
        kind, value, report = _entry(ref, ws)
        validator, detail = _KINDS[kind]
        if report is None:
            report = validator(value)
        if report.ok:
            print(f"ok: {ref} ({kind}, {detail(value)})")
        else:
            print(f"FAIL: {ref} ({kind})")
            _print_violations(report, ref)
            worst = 1
    return worst


def cmd_factorise(args, ws: LawScope) -> int:
    fun = resolve(args.functor, ws, "functor")
    parts = comprehensive_factorise(fun)
    print(
        f"mid: {len(parts.mid.objects)} objects, {len(parts.mid.morphisms)} morphisms"
    )
    print("initial part: objects " + ", ".join(
        f"{a}->{parts.e.obj_map[a]}" for a in fun.dom.objects))
    print("opfibration part: objects " + ", ".join(
        f"{x}->{parts.m.obj_map[x]}" for x in parts.mid.objects))
    _save(functor_to_json(parts.e), args.out_e)
    _save(functor_to_json(parts.m), args.out_m)
    return 0


def cmd_jf(args, ws: LawScope) -> int:
    fun = resolve(args.functor, ws, "functor")
    jp = j_object(fun)
    print(f"jf: {len(jp.j.objects)} objects, {len(jp.j.morphisms)} morphisms")
    _save(category_to_json(jp.j), args.out)
    _save(functor_to_json(jp.s), args.out_s)
    _save(functor_to_json(jp.t), args.out_t)
    return 0


def cmd_free_lens(args, ws: LawScope) -> int:
    fun = resolve(args.functor, ws, "functor")
    l = free_lens(fun)
    ef = e_object(fun)
    print(
        f"ef: {len(ef.e.objects)} objects, {len(ef.e.morphisms)} morphisms; "
        f"lifts: {len(l.lifts.entries)}"
    )
    print("lens laws: ok")  # free_lens raises unless its table passes them
    _save(lens_to_json(l), args.out)
    return 0


def cmd_lift(args, ws: LawScope) -> int:
    top = resolve(args.top, ws, "functor")
    bottom = resolve(args.bottom, ws, "functor")
    if args.coalgebra is not None:
        if args.lens is None:
            raise InputError("--coalgebra requires --lens")
        if not args.coalgebra.startswith("cofree:"):
            raise InputError("coalgebra references use the cofree:FUNREF form")
        coalg = cofree_coalgebra(resolve(args.coalgebra[7:], ws, "functor"))
        lens = resolve(args.lens, ws, "lens")
        sq = CommutingSquare(coalg.functor, lens.functor, top, bottom)
        d = lift_against_coalgebra(sq, coalg, lens)
    else:
        if args.left is None or args.right is None:
            raise InputError("lift needs either --left/--right or --coalgebra/--lens")
        sq = CommutingSquare(
            resolve(args.left, ws, "functor"),
            resolve(args.right, ws, "functor"),
            top,
            bottom,
        )
        d = orthogonal_lift(sq)
    print("diagonal objects: " + ", ".join(
        f"{a}->{d.obj_map[a]}" for a in d.dom.objects))
    _save(functor_to_json(d), args.out)
    return 0


def cmd_laws(args, ws: LawScope) -> int:
    families = tuple(args.families.split(",")) if args.families is not None else None
    result = run_laws(ws, families=families, seed=args.seed)
    total, bad = Counter(c.family for c in result.cases), Counter(c.family for c in result.failures)
    for fam in sorted(total):
        print(f"{fam}: {total[fam]} cases, {bad[fam]} failures")
    for c in result.failures:
        print(
            f"FAIL {c.family} {c.subject} :: "
            + "; ".join(" ".join(str(p) for p in w) for w in c.witness)
        )
    for pair in result.skipped:
        print(f"skipped (guard): {pair}")
    if result.stopped:
        print("suite: stopped")
        print(f"error: out of resources in {result.stopped}", file=sys.stderr)
        return 2
    if not result.cases:
        print("suite: nothing checked")
        return 1
    if result.ok and result.skipped:
        skipped, pairs = len(result.skipped), len(ws.fixtures) ** 2
        print(f"suite: partial, {skipped} of {pairs} fixture pairs skipped by the guard")
        return 0
    print("suite: " + ("ok" if result.ok else "FAILED"))
    return 0 if result.ok else 1


def _structure_json(a) -> dict:
    return functor_to_json(a.structure)


# enumerate KIND -> (kinds of its entries, search, JSON of one result)
_ENUMERATIONS = {
    "functors": (("category", "category"), enumerate_functors, functor_to_json),
    "dofs": (("category", "category"), discrete_opfibrations, functor_to_json),
    "squares": (
        ("functor", "functor"),
        enumerate_commuting_squares,
        lambda sq: {"top": functor_to_json(sq.top), "bottom": functor_to_json(sq.bottom)},
    ),
    "lenses": (("functor",), enumerate_lens_structures, lens_to_json),
    "jr-algebras": (("functor",), enumerate_jr_algebras, _structure_json),
    "r-algebras": (("functor",), enumerate_r_algebra_structures, _structure_json),
    "l-coalgebras": (("functor",), enumerate_l_coalgebras, _structure_json),
}


def cmd_enumerate(args, ws: LawScope) -> int:
    kind = args.kind
    kinds, search, to_json = _ENUMERATIONS[kind]
    if len(args.entry) != len(kinds):
        raise InputError(
            f"enumerate {kind} takes {len(kinds)} entr{'y' if len(kinds) == 1 else 'ies'}, "
            f"got {len(args.entry)}"
        )
    values = search(*(resolve(ref, ws, k) for ref, k in zip(args.entry, kinds)), ws.guard)
    payloads = [to_json(v) for v in values]
    print(f"{kind}: {len(values)}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, payload in enumerate(payloads):
            save_payload(str(out / f"{kind}-{i}.json"), payload)
        print(f"wrote {len(payloads)} files to {out}")
    return 0


def cmd_export_dot(args, ws: LawScope) -> int:
    value = resolve(args.entry, ws, "category", "lens")
    lens = value if isinstance(value, DeltaLens) else None
    cat = value.functor.dom if lens else value
    if args.lens is not None:
        lens = resolve(args.lens, ws, "lens")
    text = export_dot(cat, lens=lens, name=args.name)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltalens",
        description="Finite-category delta lens toolkit.",
    )
    parser.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                        help="enumeration bound")
    parser.add_argument("--corpus", default=None,
                        help="directory of extra category JSON fixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate categories, functors, lenses")
    p.add_argument("entry", nargs="+")

    p = sub.add_parser("factorise", help="initial / discrete-opfibration factorisation")
    p.add_argument("functor")
    p.add_argument("--out-e", default=None)
    p.add_argument("--out-m", default=None)

    p = sub.add_parser("jf", help="coslice construction for a functor")
    p.add_argument("functor")
    p.add_argument("--out", default=None)
    p.add_argument("--out-s", default=None)
    p.add_argument("--out-t", default=None)

    p = sub.add_parser("free-lens", help="free delta lens on a functor")
    p.add_argument("functor")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lift", help="diagonal filler for a commuting square")
    p.add_argument("--top", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.add_argument("--coalgebra", default=None,
                   help="cofree:FUNREF; lifts through the lens from --lens")
    p.add_argument("--lens", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("laws", help="run the law suite over the corpus")
    p.add_argument("--families", default=None,
                   help="comma-separated subset of: " + ", ".join(FAMILIES))
    p.add_argument("--seed", type=int, default=None,
                   help="shuffle case execution order (results stay sorted)")

    p = sub.add_parser("enumerate", help="exhaustive searches under the guard")
    p.add_argument("kind", choices=list(_ENUMERATIONS))
    p.add_argument("entry", nargs="*")
    p.add_argument("--out", default=None, help="directory for numbered JSON files")

    p = sub.add_parser("export-dot", help="graph description of a category or lens")
    p.add_argument("entry")
    p.add_argument("--lens", default=None)
    p.add_argument("--name", default="category")
    p.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "factorise": cmd_factorise,
    "jf": cmd_jf,
    "free-lens": cmd_free_lens,
    "lift": cmd_lift,
    "laws": cmd_laws,
    "enumerate": cmd_enumerate,
    "export-dot": cmd_export_dot,
}


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        ws = build_workspace(args.corpus, args.guard)
        return _COMMANDS[args.command](args, ws)
    except (InputError, GuardExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"law failure: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
