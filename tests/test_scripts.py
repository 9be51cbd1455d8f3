"""The maintenance scripts under `scripts/`, and the laws runner
`deltalens laws`, run end to end in a child process that imports the same
package as this one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltalens
from deltalens.fixtures import CORPUS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(*argv: str) -> subprocess.CompletedProcess:
    path = [str(Path(deltalens.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


@pytest.mark.parametrize("families, bad", [("fixtures,nope", "'nope'"), ("fixtures,", "''")])
def test_run_laws_script_rejects_an_unknown_family_before_running_any(families, bad):
    # The exit code is the one the process returns, not main()'s value.
    proc = _run("-m", "deltalens.cli", "laws", "--families", families)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: unknown law family: {bad}\n"


def test_export_diagrams_script_writes_every_diagram(tmp_path):
    proc = _run(str(SCRIPTS / "export_diagrams.py"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(tmp_path.glob("*.dot"))
    # Per fixture: the category, and J, E and the free lens of two functors.
    assert len(written) == 7 * len(CORPUS)
    assert proc.stdout == f"wrote {len(written)} DOT files to {tmp_path}/\n"
    assert all(p.read_text().startswith("digraph ") for p in written)
