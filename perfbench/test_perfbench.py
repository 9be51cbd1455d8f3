"""Smoke tests of the benchmark itself: python3 -m pytest -q perfbench

Each run uses --smoke (one small round, same code path and gate), so the
whole file takes seconds.  Tier-1 (`pytest` with testpaths = tests) does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workload as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    runs = 2 if trace == "1" else 1
    assert result["attempted"] == runs * wl.expected_ops(workload, smoke=True)
    # Only the known-defect argv may fail.
    known = len(wl.CLI_KNOWN_DEFECTS) if workload == "cli-files" else 0
    assert result["failed"] <= runs * known


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "naturality", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_mismatch_fails_the_op():
    dl = wl.import_deltalens()
    group_dir = ROOT / ".perfbench" / "digest-test"
    shutil.rmtree(group_dir, ignore_errors=True)
    key = "jf id:interval"
    argv = wl.write_group("jf", "id:interval")[0]
    try:
        good = wl.cli_op(dl, key, "jf", argv, group_dir, wl.load_digests(), False)
        assert good.run() is None
        bad = wl.cli_op(dl, key, "jf", argv, group_dir, {f"{key} @j.json": "0" * 64}, False)
        assert "differs from recorded" in bad.run()
    finally:
        shutil.rmtree(group_dir, ignore_errors=True)


def test_every_recorded_digest_belongs_to_a_choosable_group():
    keys = set()
    for key, _, argvs, _ in wl.all_cli_groups():
        for argv in argvs:
            keys.update(f"{key} {t}" for f, t in zip(argv, argv[1:]) if f.startswith("--out"))
    assert keys == set(wl.load_digests())


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(1, 501))
    assert run.tail(xs) == (490, 98)
    value, p = run.tail(list(range(1, 152)))
    assert p == 93 and sum(x > value for x in range(1, 152)) >= 10
