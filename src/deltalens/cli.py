"""Command line surface.

Subcommands: validate, factorise, jf, free-lens, lift, laws, enumerate,
export-dot.  Exit codes: 0 success, 1 law failure, 2 input error.

Entry references resolve either to builtin fixture names (plus any
categories loaded from --corpus), to JSON files, or to derived objects
via prefixes:

  categories   NAME | PATH | jf:FUNREF | ef:FUNREF | discrete:CATREF
  functors     PATH | id:CATREF | iota:CATREF | s:FUNREF | t:FUNREF
               | lf:FUNREF | rf:FUNREF
  lenses       PATH | free-lens:FUNREF | dof:FUNREF | id-lens:CATREF

A fixture name or a prefix wins over a file of the same name.

`main(argv)` may be called repeatedly in one process: the argument
parser is built once, at import, and each call parses its own argv into
a fresh namespace.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
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


@dataclass
class Workspace:
    fixtures: dict[str, FinCat]
    broken: dict[str, tuple]
    guard: int


def build_workspace(corpus_dir: str | None, guard: int) -> Workspace:
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
    return Workspace(fixtures, broken, guard)


_CATEGORY_PREFIXES = ("jf:", "ef:", "discrete:")
_FUNCTOR_PREFIXES = ("id:", "iota:", "s:", "t:", "lf:", "rf:")
_LENS_PREFIXES = ("free-lens:", "dof:", "id-lens:")


def _names_file(ref: str, ws: Workspace) -> bool:
    """Whether `ref` is a file path and not a name: the resolve_* functions
    try fixture names and prefixes before the file system, and so does
    every command that loads files itself."""
    return not (
        ref in ws.fixtures
        or ref in ws.broken
        or ref.startswith(_CATEGORY_PREFIXES + _FUNCTOR_PREFIXES + _LENS_PREFIXES)
    ) and Path(ref).is_file()


def _checked(report: ValidationReport, what: str):
    if not report.ok:
        first = " ".join(str(p) for p in report.violations[0])
        raise InputError(f"{what} fails validation: {first}")


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


def _load_checked(path: str, kind: str):
    """The value in a file that must hold a valid `kind`."""
    found, value, report = _load_entry(path)
    if found != kind:
        raise InputError(f"{path} does not hold a {kind}")
    _checked(report, f"{kind} {path}")
    return value


def resolve_category(ref: str, ws: Workspace) -> FinCat:
    if ref in ws.fixtures:
        return ws.fixtures[ref]
    if ref in ws.broken:
        first = " ".join(str(p) for p in ws.broken[ref][0])
        raise InputError(f"corpus category {ref!r} is broken: {first}")
    if ref.startswith("jf:"):
        return j_object(resolve_functor(ref[3:], ws)).j
    if ref.startswith("ef:"):
        return e_object(resolve_functor(ref[3:], ws)).e
    if ref.startswith("discrete:"):
        return discrete(resolve_category(ref[9:], ws))
    if Path(ref).is_file():
        return _load_checked(ref, "category")
    raise InputError(f"unknown category reference: {ref!r}")


def resolve_functor(ref: str, ws: Workspace) -> FinFunctor:
    if ref.startswith("id:"):
        return identity_functor(resolve_category(ref[3:], ws))
    if ref.startswith("iota:"):
        return counit_inclusion(resolve_category(ref[5:], ws))
    if ref.startswith("s:"):
        return j_object(resolve_functor(ref[2:], ws)).s
    if ref.startswith("t:"):
        return j_object(resolve_functor(ref[2:], ws)).t
    if ref.startswith("lf:"):
        return e_object(resolve_functor(ref[3:], ws)).lf
    if ref.startswith("rf:"):
        return e_object(resolve_functor(ref[3:], ws)).rf
    if Path(ref).is_file():
        return _load_checked(ref, "functor")
    raise InputError(f"unknown functor reference: {ref!r}")


def resolve_lens(ref: str, ws: Workspace) -> DeltaLens:
    if ref.startswith("free-lens:"):
        return free_lens(resolve_functor(ref[10:], ws))
    if ref.startswith("dof:"):
        return lens_from_discrete_opfibration(resolve_functor(ref[4:], ws))
    if ref.startswith("id-lens:"):
        return identity_lens(resolve_category(ref[8:], ws))
    if Path(ref).is_file():
        return _load_checked(ref, "lens")
    raise InputError(f"unknown lens reference: {ref!r}")


def _save(payload: dict, out: str | None) -> None:
    if out is not None:
        save_payload(out, payload)
        print(f"wrote {out}")


def _print_violations(report: ValidationReport, label: str) -> None:
    for v in report.violations:
        print(f"violation: {label}: " + " ".join(str(p) for p in v))


def cmd_validate(args, ws: Workspace) -> int:
    worst = 0
    for ref in args.entry:
        kind = None
        if ref in ws.broken:
            print(f"FAIL: {ref} (category)")
            for v in ws.broken[ref]:
                print(f"violation: {ref}: " + " ".join(str(p) for p in v))
            worst = 1
            continue
        if _names_file(ref, ws):
            kind, value, report = _load_entry(ref)
            if kind == "category":
                detail = f"{len(value.objects)} objects, {len(value.morphisms)} morphisms"
            elif kind == "functor":
                detail = f"{len(value.obj_map)} objects mapped"
            else:
                detail = f"{len(value.lifts.entries)} lifts"
        elif ref in ws.fixtures or ref.startswith(_CATEGORY_PREFIXES):
            value = resolve_category(ref, ws)
            kind = "category"
            report = validate_category(value)
            detail = f"{len(value.objects)} objects, {len(value.morphisms)} morphisms"
        elif ref.startswith(_LENS_PREFIXES):
            value = resolve_lens(ref, ws)
            kind = "lens"
            report = validate_lens(value)
            detail = f"{len(value.lifts.entries)} lifts"
        else:
            value = resolve_functor(ref, ws)
            kind = "functor"
            report = validate_functor(value)
            detail = "functor"
        if report.ok:
            print(f"ok: {ref} ({kind}, {detail})")
        else:
            print(f"FAIL: {ref} ({kind})")
            _print_violations(report, ref)
            worst = 1
    return worst


def cmd_factorise(args, ws: Workspace) -> int:
    fun = resolve_functor(args.functor, ws)
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


def cmd_jf(args, ws: Workspace) -> int:
    fun = resolve_functor(args.functor, ws)
    jp = j_object(fun)
    print(f"jf: {len(jp.j.objects)} objects, {len(jp.j.morphisms)} morphisms")
    _save(category_to_json(jp.j), args.out)
    _save(functor_to_json(jp.s), args.out_s)
    _save(functor_to_json(jp.t), args.out_t)
    return 0


def cmd_free_lens(args, ws: Workspace) -> int:
    fun = resolve_functor(args.functor, ws)
    l = free_lens(fun)
    ef = e_object(fun)
    print(
        f"ef: {len(ef.e.objects)} objects, {len(ef.e.morphisms)} morphisms; "
        f"lifts: {len(l.lifts.entries)}"
    )
    report = validate_lens(l)
    if not report.ok:
        _print_violations(report, args.functor)
        return 1
    print("lens laws: ok")
    _save(lens_to_json(l), args.out)
    return 0


def cmd_lift(args, ws: Workspace) -> int:
    top = resolve_functor(args.top, ws)
    bottom = resolve_functor(args.bottom, ws)
    if args.coalgebra is not None:
        if args.lens is None:
            raise InputError("--coalgebra requires --lens")
        if not args.coalgebra.startswith("cofree:"):
            raise InputError("coalgebra references use the cofree:FUNREF form")
        coalg = cofree_coalgebra(resolve_functor(args.coalgebra[7:], ws))
        lens = resolve_lens(args.lens, ws)
        sq = CommutingSquare(coalg.functor, lens.functor, top, bottom)
        d = lift_against_coalgebra(sq, coalg, lens)
    else:
        if args.left is None or args.right is None:
            raise InputError("lift needs either --left/--right or --coalgebra/--lens")
        sq = CommutingSquare(
            resolve_functor(args.left, ws),
            resolve_functor(args.right, ws),
            top,
            bottom,
        )
        d = orthogonal_lift(sq)
    print("diagonal objects: " + ", ".join(
        f"{a}->{d.obj_map[a]}" for a in d.dom.objects))
    _save(functor_to_json(d), args.out)
    return 0


def cmd_laws(args, ws: Workspace) -> int:
    families = tuple(args.families.split(",")) if args.families else None
    scope = LawScope(fixtures=ws.fixtures, guard=ws.guard, broken=ws.broken)
    result = run_laws(scope, families=families, seed=args.seed)
    counts: dict[str, list[int]] = {}
    for c in result.cases:
        row = counts.setdefault(c.family, [0, 0])
        row[0] += 1
        row[1] += 0 if c.ok else 1
    for fam in sorted(counts):
        total, bad = counts[fam]
        print(f"{fam}: {total} cases, {bad} failures")
    for c in result.failures:
        print(
            f"FAIL {c.family} {c.subject} :: "
            + "; ".join(" ".join(str(p) for p in w) for w in c.witness)
        )
    for pair in result.skipped:
        print(f"skipped (guard): {pair}")
    if not result.cases:
        print("suite: nothing checked")
        return 1
    if result.ok and result.skipped:
        skipped, pairs = len(result.skipped), len(scope.fixtures) ** 2
        print(f"suite: partial, {skipped} of {pairs} fixture pairs skipped by the guard")
        return 0
    print("suite: " + ("ok" if result.ok else "FAILED"))
    return 0 if result.ok else 1


def cmd_enumerate(args, ws: Workspace) -> int:
    kind = args.kind
    arity = 2 if kind in ("functors", "dofs", "squares") else 1
    if len(args.entry) != arity:
        raise InputError(
            f"enumerate {kind} takes {arity} entr{'y' if arity == 1 else 'ies'}, got {len(args.entry)}"
        )
    if kind == "functors":
        dom = resolve_category(args.entry[0], ws)
        cod = resolve_category(args.entry[1], ws)
        values = enumerate_functors(dom, cod, ws.guard)
        payloads = [functor_to_json(f) for f in values]
    elif kind == "dofs":
        dom = resolve_category(args.entry[0], ws)
        cod = resolve_category(args.entry[1], ws)
        values = discrete_opfibrations(dom, cod, ws.guard)
        payloads = [functor_to_json(f) for f in values]
    elif kind == "squares":
        f = resolve_functor(args.entry[0], ws)
        g = resolve_functor(args.entry[1], ws)
        values = enumerate_commuting_squares(f, g, ws.guard)
        payloads = [
            {"top": functor_to_json(sq.top), "bottom": functor_to_json(sq.bottom)}
            for sq in values
        ]
    else:
        fun = resolve_functor(args.entry[0], ws)
        if kind == "lenses":
            values = enumerate_lens_structures(fun, ws.guard)
            payloads = [lens_to_json(l) for l in values]
        elif kind == "jr-algebras":
            values = enumerate_jr_algebras(fun, ws.guard)
            payloads = [functor_to_json(a.structure) for a in values]
        elif kind == "r-algebras":
            values = enumerate_r_algebra_structures(fun, ws.guard)
            payloads = [functor_to_json(a.structure) for a in values]
        else:
            values = enumerate_l_coalgebras(fun, ws.guard)
            payloads = [functor_to_json(a.structure) for a in values]
    print(f"{kind}: {len(values)}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for i, payload in enumerate(payloads):
            save_payload(str(out / f"{kind}-{i}.json"), payload)
        print(f"wrote {len(payloads)} files to {out}")
    return 0


def cmd_export_dot(args, ws: Workspace) -> int:
    if _names_file(args.entry, ws):
        kind, value, report = _load_entry(args.entry)
        if kind == "functor":
            raise InputError(f"{args.entry} does not hold a category or a lens")
        _checked(report, f"{kind} {args.entry}")
    elif args.entry.startswith(_LENS_PREFIXES):
        value = resolve_lens(args.entry, ws)
    else:
        value = resolve_category(args.entry, ws)
    lens = value if isinstance(value, DeltaLens) else None
    cat = value.functor.dom if lens else value
    if args.lens is not None:
        lens = resolve_lens(args.lens, ws)
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
    p.add_argument("kind", choices=[
        "functors", "dofs", "squares", "lenses",
        "jr-algebras", "r-algebras", "l-coalgebras",
    ])
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
