"""One cold run of one benchmark workload, in a fresh process.

Run by `run.py`, never imported by the package.  The process imports
deltalens from `src/`, builds the corpus (setup), builds the seeded list
of operations, then runs them as a closed loop with a single client: each
operation is one call into a public deltalens function, checked as soon
as it returns.  The last line of stdout is a JSON record of the run.

Workloads (why each was chosen is in README.md next to this file):

naturality  one op per (family, corpus functor), families semimonad,
            monad, comonad and coalgebra; the seed orders the ops.
tower       validate_distributive_law on a stratified seeded sample of
            corpus functors (always one heavy functor out of each of the
            two heavy signatures, every other functor), plus the tower
            family checks on the tower fixtures; the seed picks the heavy
            functors and orders the ops.
cli-files   in-process `deltalens.cli.main` calls: writes (jf, factorise,
            free-lens, export-dot, enumerate --out) with the reads that
            use the files just written (validate, lift, export-dot of a
            lens file), malformed argv and the known-defect argv; the seed
            picks the references and orders the groups.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("naturality", "tower", "cli-files")
FIXTURES = (
    "discrete-pair",
    "idempotent-monoid",
    "interval",
    "parallel-pair",
    "terminal",
    "walking-iso",
    "walking-retraction",
)
SMOKE_FIXTURES = ("interval", "terminal")
CORPUS_FUNCTORS = 125
CORPUS_SQUARES = 5109
NATURALITY_FAMILIES = ("semimonad", "monad", "comonad", "coalgebra")
# The 8 functors whose distributive law dominates the tower cost.
HEAVY_SIGNATURES = ("walking-iso->walking-iso", "walking-retraction->walking-iso")
TOWER_FIXTURES = ("discrete-pair", "interval", "parallel-pair", "terminal")
TOWER_CHECKS = ("monad@rf", "comonad@lf", "distributive@rf", "distributive@lf")
# The depth-3 glued category E(rf of E(lf of f)) whose size is pinned.
PINNED_FUNCTOR = "walking-iso->walking-iso#1"
PINNED_SIZE = (32, 1024, 32768)
CALIBRATE_EVERY_S = 0.1

# cli-files, per run: references per fixture for each write kind, and how
# many argv to draw from the enumerate and malformed pools (full, smoke).
# Each known-defect argv appears once per run.
CLI_SIZES = {False: (5, 7, 7), True: (1, 2, 2)}
CLI_KNOWN_DEFECTS = (
    # ROADMAP item 5: IndexError traceback instead of exit 2.
    ("enumerate", "functors", "interval"),
    # ROADMAP item 5: a non-positive guard skips every pair and exits 0.
    ("--guard", "-5", "laws"),
)
CLI_MALFORMED = (
    ("jf", "id:no-such-category"),
    ("validate", "@missing.json"),
    ("factorise",),
    ("enumerate", "widgets", "interval"),
    ("lift", "--top", "id:interval", "--bottom", "id:interval"),
    ("--corpus", "@no-such-dir", "laws", "--families", "fixtures"),
    ("--guard", "many", "laws"),
    ("free-lens", "rf:"),
)
CLI_ENUMERATE = (
    ("enumerate", "functors", "interval", "walking-iso"),
    ("enumerate", "functors", "parallel-pair", "walking-retraction"),
    ("enumerate", "dofs", "parallel-pair", "interval"),
    ("enumerate", "dofs", "walking-iso", "walking-iso"),
    ("enumerate", "squares", "id:interval", "id:interval"),
    ("enumerate", "squares", "iota:interval", "id:walking-iso"),
    ("enumerate", "lenses", "iota:interval"),
    ("enumerate", "lenses", "rf:id:interval"),
    ("enumerate", "jr-algebras", "iota:interval"),
    ("enumerate", "jr-algebras", "id:terminal"),
    ("enumerate", "r-algebras", "iota:interval"),
    ("enumerate", "r-algebras", "id:interval"),
    ("enumerate", "l-coalgebras", "id:terminal"),
    ("enumerate", "l-coalgebras", "iota:interval"),
)
CLI_WRITE_KINDS = ("jf", "factorise", "free-lens", "export-dot")


def expected_ops(workload: str, smoke: bool) -> int:
    """Operation count a run must perform, independent of the seed."""
    if workload == "naturality":
        return len(NATURALITY_FAMILIES) * (7 if smoke else CORPUS_FUNCTORS)
    if workload == "tower":
        if smoke:
            return 7 + 2 * len(SMOKE_FIXTURES) * len(TOWER_CHECKS)
        # 2 heavy + 117 others + 8 tower inputs x 4 checks
        return 2 + (CORPUS_FUNCTORS - 8) + 2 * len(TOWER_FIXTURES) * len(TOWER_CHECKS)
    fixtures = len(SMOKE_FIXTURES) if smoke else len(FIXTURES)
    per_fixture, n_enumerate, n_malformed = CLI_SIZES[smoke]
    ops_per_group = {"jf": 2, "factorise": 3, "free-lens": 3, "export-dot": 1}
    writes = sum(ops_per_group.values()) * fixtures * per_fixture
    return writes + n_enumerate + n_malformed + len(CLI_KNOWN_DEFECTS)


class Op:
    """One operation: a callable returning None when its output is
    correct, otherwise a one-line reason."""

    __slots__ = ("label", "known_defect", "run")

    def __init__(self, label: str, run, known_defect: bool = False):
        self.label = label
        self.run = run
        self.known_defect = known_defect


# -- naturality and tower ------------------------------------------------------


def _report(report) -> str | None:
    return None if report.ok else f"law violations: {report.violations[:3]}"


def _signature(name: str) -> str:
    return name.split("#")[0]


def _in_smoke(name: str) -> bool:
    dom, cod = _signature(name).split("->")
    return dom in SMOKE_FIXTURES and cod in SMOKE_FIXTURES


def naturality_ops(dl, rng, smoke, functors, squares) -> list[Op]:
    by_left: dict[tuple, list] = {}
    for _, sq in squares:
        by_left.setdefault(sq.left.key, []).append(sq)
    semimonad, awfs = dl["semimonad"], dl["awfs"]
    checks = {
        "semimonad": lambda f, s: semimonad.validate_semimonad(f, squares=s),
        "monad": lambda f, s: awfs.validate_monad(f, squares=s),
        "comonad": lambda f, s: awfs.validate_comonad(f, squares=s),
        "coalgebra": lambda f, s: awfs.validate_l_coalgebra(awfs.cofree_coalgebra(f)),
    }
    ops = []
    for family in NATURALITY_FAMILIES:
        check = checks[family]
        for name, fun in functors:
            if smoke and not _in_smoke(name):
                continue
            sqs = tuple(by_left.get(fun.key, ()))
            ops.append(
                Op(f"{family} {name}", lambda c=check, f=fun, s=sqs: _report(c(f, s)))
            )
    rng.shuffle(ops)
    return ops


def tower_sample(rng, smoke, functors) -> list[tuple[str, object]]:
    """Stratified sample: one functor of each heavy signature, every
    other functor (smoke: the functors between smoke fixtures)."""
    if smoke:
        return [(n, f) for n, f in functors if _in_smoke(n)]
    picked = []
    for sig in HEAVY_SIGNATURES:
        picked.append(rng.choice([(n, f) for n, f in functors if _signature(n) == sig]))
    picked.extend((n, f) for n, f in functors if _signature(n) not in HEAVY_SIGNATURES)
    return picked


def tower_ops(dl, rng, smoke, functors, scope) -> list[Op]:
    awfs, kernel = dl["awfs"], dl["kernel"]
    ops = [
        Op(f"distributive {n}", lambda f=f: _report(awfs.validate_distributive_law(f)))
        for n, f in tower_sample(rng, smoke, functors)
    ]
    checks = {
        "monad@rf": lambda ef: awfs.validate_monad(ef.rf),
        "comonad@lf": lambda ef: awfs.validate_comonad(ef.lf),
        "distributive@rf": lambda ef: awfs.validate_distributive_law(ef.rf),
        "distributive@lf": lambda ef: awfs.validate_distributive_law(ef.lf),
    }
    for name in SMOKE_FIXTURES if smoke else TOWER_FIXTURES:
        cat = scope.fixtures[name]
        for label, fun in (
            (f"id:{name}", kernel.identity_functor(cat)),
            (f"iota:{name}", kernel.counit_inclusion(cat)),
        ):
            for check in TOWER_CHECKS:
                ops.append(
                    Op(
                        f"tower {check}:{label}",
                        lambda c=checks[check], f=fun: _report(c(awfs.e_object(f))),
                    )
                )
    rng.shuffle(ops)
    return ops


def pinned_size(dl, functors) -> tuple[int, int, int]:
    """Size of E(rf of E(lf of f)) for the pinned corpus functor."""
    e_object = dl["awfs"].e_object
    f = dict(functors)[PINNED_FUNCTOR]
    e = e_object(e_object(e_object(f).lf).rf).e
    return len(e.objects), len(e.morphisms), len(e.compose)


# -- cli-files -----------------------------------------------------------------


def functor_refs(fixture: str) -> list[str]:
    """Functor references on a fixture, up to two prefixes deep."""
    one = [f"id:{fixture}", f"iota:{fixture}"]
    return one + [f"{p}:{r}" for r in one for p in ("s", "t", "lf", "rf")]


def export_refs(fixture: str) -> list[str]:
    """Category and lens references for export-dot, up to two prefixes deep."""
    one = [f"id:{fixture}", f"iota:{fixture}"]
    return [
        fixture,
        f"discrete:{fixture}",
        f"id-lens:{fixture}",
        *(f"{p}:{r}" for r in one for p in ("jf", "ef", "free-lens")),
    ]


def write_group(kind: str, ref: str) -> list[tuple[str, ...]]:
    """The argv of one write and of the reads of what it wrote.  Tokens
    starting with "@" name files in the group's own directory."""
    if kind == "jf":
        return [("jf", ref, "--out", "@j.json"), ("validate", "@j.json")]
    if kind == "factorise":
        return [
            ("factorise", ref, "--out-e", "@e.json", "--out-m", "@m.json"),
            ("validate", "@e.json", "@m.json"),
            ("lift", "--left", "@e.json", "--right", "@m.json",
             "--top", "@e.json", "--bottom", "@m.json", "--out", "@d.json"),
        ]
    if kind == "free-lens":
        return [
            ("free-lens", ref, "--out", "@l.json"),
            ("validate", "@l.json"),
            ("export-dot", "@l.json", "--out", "@l.dot"),
        ]
    return [("export-dot", ref, "--out", "@c.dot")]


def all_cli_groups() -> list[tuple[str, str, list[tuple[str, ...]], bool]]:
    """Every group a seed can choose, as (key, class, argv list, known defect)."""
    groups = []
    for kind in CLI_WRITE_KINDS:
        refs = export_refs if kind == "export-dot" else functor_refs
        for fixture in FIXTURES:
            for ref in refs(fixture):
                groups.append((f"{kind} {ref}", kind, write_group(kind, ref), False))
    for argv in CLI_ENUMERATE:
        groups.append((" ".join(argv), "enumerate", [(*argv, "--out", "@enum")], False))
    for argv in CLI_MALFORMED:
        groups.append((" ".join(argv), "malformed", [argv], False))
    for argv in CLI_KNOWN_DEFECTS:
        groups.append((" ".join(argv), "known-defect", [argv], True))
    return groups


def choose_cli_groups(rng, smoke):
    fixtures = SMOKE_FIXTURES if smoke else FIXTURES
    per_fixture, n_enumerate, n_malformed = CLI_SIZES[smoke]
    chosen = []
    for kind in CLI_WRITE_KINDS:
        refs = export_refs if kind == "export-dot" else functor_refs
        for fixture in fixtures:
            for ref in rng.sample(refs(fixture), per_fixture):
                chosen.append((f"{kind} {ref}", kind, write_group(kind, ref), False))
    by_key = {g[0]: g for g in all_cli_groups()}
    for pool, n in ((CLI_ENUMERATE, n_enumerate), (CLI_MALFORMED, n_malformed)):
        for argv in rng.sample(pool, n):
            chosen.append(by_key[" ".join(argv)])
    for argv in CLI_KNOWN_DEFECTS:
        chosen.append(by_key[" ".join(argv)])
    rng.shuffle(chosen)
    return chosen


def expected_exit(kind: str) -> int:
    return 2 if kind in ("malformed", "known-defect") else 0


def output_digest(path: Path) -> str:
    """SHA-256 of a written file, or of every file under a written directory."""
    h = hashlib.sha256()
    if path.is_dir():
        for p in sorted(path.iterdir()):
            h.update(p.name.encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def call_cli(main, argv: list[str]) -> tuple[int | None, str]:
    """Call deltalens.cli.main in-process; (exit code, crash text)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv), ""
        except SystemExit as exc:
            return (0 if exc.code is None else exc.code), ""
        except Exception:
            return None, traceback.format_exc(limit=-1).strip().splitlines()[-1]


def cli_op(dl, key, kind, argv, group_dir: Path, digests, known_defect) -> Op:
    def resolve(token: str) -> str:
        return str(group_dir / token[1:]) if token.startswith("@") else token

    def run():
        group_dir.mkdir(parents=True, exist_ok=True)
        code, crash = call_cli(dl["cli"].main, [resolve(t) for t in argv])
        if crash:
            return f"crash: {crash}"
        if code != expected_exit(kind):
            return f"exit {code}, expected {expected_exit(kind)}"
        for flag, token in zip(argv, argv[1:]):
            if flag.startswith("--out") and token.startswith("@"):
                want = digests.get(f"{key} {token}")
                got = output_digest(group_dir / token[1:])
                if got != want:
                    return f"{token}: sha256 {got[:12]} differs from recorded {str(want)[:12]}"
        return None

    return Op(f"cli {' '.join(argv)}", run, known_defect)


def cli_ops(dl, rng, smoke, workdir: Path, digests) -> list[Op]:
    ops = []
    for i, (key, kind, argvs, known_defect) in enumerate(choose_cli_groups(rng, smoke)):
        for argv in argvs:
            ops.append(cli_op(dl, key, kind, argv, workdir / f"g{i}", digests, known_defect))
    return ops


def load_digests() -> dict[str, str]:
    with open(BENCH / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- the run -------------------------------------------------------------------


def import_deltalens() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import deltalens.awfs
    import deltalens.cli
    import deltalens.kernel
    import deltalens.laws
    import deltalens.semimonad

    mods = sys.modules
    return {m: mods[f"deltalens.{m}"] for m in ("awfs", "cli", "kernel", "laws", "semimonad")}


def setup(dl, workload, seed, smoke, workdir):
    laws = dl["laws"]
    scope = laws.default_scope()
    functors, skipped = laws.corpus_functors(scope)
    squares = laws.corpus_squares(scope, functors)
    gate = []
    if (len(functors), len(skipped), len(squares)) != (CORPUS_FUNCTORS, 0, CORPUS_SQUARES):
        gate.append(
            f"corpus has {len(functors)} functors ({len(skipped)} pairs skipped) and "
            f"{len(squares)} squares, expected {CORPUS_FUNCTORS} and {CORPUS_SQUARES}"
        )
    rng = random.Random(seed)
    if workload == "naturality":
        ops = naturality_ops(dl, rng, smoke, functors, squares)
    elif workload == "tower":
        ops = tower_ops(dl, rng, smoke, functors, scope)
    else:
        ops = cli_ops(dl, rng, smoke, workdir, load_digests())
    return functors, ops, gate


def calibration() -> int:
    """Fixed pure-Python work (allocation, hashing, dict probes), timed
    between ops to follow the machine's speed, which drifts on a shared
    host; it touches nothing of deltalens."""
    rows = [(i, str(i), (i, i + 1)) for i in range(3000)]
    index = {r[1]: r for r in rows}
    return sum(index[str(k)][2][1] for k in range(0, 3000, 3))


def run_ops(ops, tracer):
    """Run the ops; calibration runs between ops, at most every
    CALIBRATE_EVERY_S, and is left out of wall time and latencies."""
    latencies, failures, defects, self_sum_err = [], [], 0, 0.0
    calibration_ms, calibration_s, last = [], 0.0, float("-inf")
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        if t0 - last >= CALIBRATE_EVERY_S:
            calibration()
            last = clock()
            calibration_ms.append((last - t0) * 1000)
            calibration_s += last - t0
            t0 = last
        try:
            if tracer is None:
                reason = op.run()
            else:
                reason, dur, self_sum = tracer.run_op(op.label, op.run)
                self_sum_err = max(self_sum_err, abs(self_sum - dur))
        except Exception:
            reason = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latencies.append((clock() - t0) * 1000)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
            defects += op.known_defect
    wall = clock() - start - calibration_s
    return wall, latencies, failures, defects, self_sum_err, calibration_ms


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's perf_counter() just before starting this process")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None,
                   help="trace the run and write its spans to this file")
    args = p.parse_args(argv)

    dl = import_deltalens()
    tracer = None
    if args.trace_out is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if tracer is None:
            functors, ops, gate = setup(dl, args.workload, args.seed, args.smoke, workdir)
        else:
            (functors, ops, gate), _, _ = tracer.run_op(
                "setup", lambda: setup(dl, args.workload, args.seed, args.smoke, workdir)
            )
        setup_s = time.perf_counter() - args.t0
        record = {"setup_s": setup_s}
        if not args.setup_only:
            wall, latencies, failures, defects, self_sum_err, cal = run_ops(ops, tracer)
            if tracer is not None:
                tracer.uninstall()
            expected = expected_ops(args.workload, args.smoke)
            if len(ops) != expected:
                gate.append(f"{len(ops)} ops generated, the workload defines {expected}")
            if not latencies:
                gate.append("no operation completed")
            if len(failures) > defects:
                gate.append(f"{len(failures) - defects} operations failed")
            if args.workload == "tower" and PINNED_FUNCTOR in {
                op.label.split(" ", 1)[1] for op in ops
            }:
                size = pinned_size(dl, functors)
                if size != PINNED_SIZE:
                    gate.append(f"E(rf of E(lf of {PINNED_FUNCTOR})) has size {size}")
            record.update(
                wall_s=wall,
                calibration_ms=cal,
                latencies_ms=latencies,
                attempted=len(latencies),
                failed=len(failures),
                known_defect_failures=defects,
                failures=failures[:20],
                gate=gate,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if tracer is not None:
                record["layers"] = tracer.metrics()
                record["self_sum_max_error_s"] = self_sum_err
                tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
        else:
            record["gate"] = gate
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
